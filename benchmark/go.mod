// The benchmark is a module of its own because its contract asks for a
// package with its own build file in its own directory: it is built from
// source by run.sh, not by the root module's `go build ./...`. Its path
// sits under the program's ("hoyan/"), which is what lets it import
// hoyan/internal/... packages.
module hoyan/benchmark

go 1.24

require hoyan v0.0.0

replace hoyan => ../
