// The benchmark is a module of its own so the root module's build and
// tier-1 tests never depend on it; the replace lets it call the
// program's public functions for the per-layer table.
module repro/bench

go 1.22

require repro v0.0.0

replace repro => ../
