# Convenience targets; everything is plain dune underneath.

.PHONY: all build test bench doc examples clean

all: build

build:
	dune build @all

test:
	dune runtest

bench:
	dune exec bench/main.exe

doc:
	dune build @doc

examples:
	dune exec examples/quickstart.exe
	dune exec examples/movie_playback.exe
	dune exec examples/udp_relay.exe
	dune exec examples/disk_to_disk_copy.exe
	dune exec examples/video_server.exe
	dune exec examples/file_server.exe
	dune exec examples/video_fanout.exe
	dune exec examples/recorder.exe

clean:
	dune clean
