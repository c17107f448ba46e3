// The benchmark is a module of its own so that it builds with its own build
// file and stays out of the root module's ./... (tier-1 build and tests).
// The import path keeps the repro/ prefix, which is what lets it import the
// repo's internal packages through the replace below.
module repro/benchmarks

go 1.22

require repro v0.0.0

replace repro => ../
