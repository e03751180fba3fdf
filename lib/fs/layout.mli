(** On-disk layout constants and superblock serialization.

    Disk image layout (all in filesystem blocks):
    {v
      block 0                     superblock
      blocks 1 .. bitmap_blocks   block allocation bitmap (1 bit/block)
      then itable_blocks          inode table (128-byte inodes)
      then                        data blocks
    v} *)

type superblock = {
  sb_magic : int;
  sb_block_size : int;
  sb_nblocks : int;  (** total filesystem size in blocks *)
  sb_ninodes : int;
  sb_bitmap_start : int;
  sb_bitmap_blocks : int;
  sb_itable_start : int;
  sb_itable_blocks : int;
  sb_data_start : int;  (** first data block *)
}

val inode_size : int
(** Bytes per on-disk inode (128). *)

val ndirect : int
(** Direct block pointers per inode (12). *)

val dirent_size : int
(** Bytes per directory entry (32: 4-byte inode number + name). *)

val name_max : int
(** Maximum file-name length (27). *)

val root_ino : int
(** Inode number of the root directory (1). Inode 0 is reserved. *)

val layout : block_size:int -> nblocks:int -> ninodes:int -> superblock
(** Compute the layout for a fresh filesystem. Raises [Invalid_argument]
    when the metadata would not fit. *)

val addrs_per_block : superblock -> int
(** Block pointers per indirect block. *)

val max_file_blocks : superblock -> int
(** Largest file size, in blocks, the inode geometry can map. *)

val write_superblock : superblock -> bytes -> unit
(** Serialize into a block-sized byte area. *)

val read_superblock : block_size:int -> bytes -> superblock
(** Deserialize; raises [Fs_error.Error (Einval _)] on a bad magic or
    mismatched block size. *)
