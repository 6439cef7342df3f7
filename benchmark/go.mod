// The benchmark is its own module so that it builds from its own
// directory and no root build file names it. The module path sits under
// "smarteryou/", which is what lets it import smarteryou/internal/...
module smarteryou/benchmark

go 1.22

require smarteryou v0.0.0

replace smarteryou => ../
