// The benchmark is a module of its own so the root module's build, vet and
// test gates never see it; it reaches the system through the root module's
// internal packages, which the shared "mgsp/" path prefix permits.
module mgsp/benchmark

go 1.22.0

require mgsp v0.0.0

replace mgsp => ../
