// The benchmark is a module of its own so that it has its own build
// file; the import path stays under abw/ so it may import abw/internal.
module abw/bench

go 1.21

require abw v0.0.0

replace abw => ../
