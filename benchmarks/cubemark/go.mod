module cure/benchmarks/cubemark

go 1.22

require cure v0.0.0

replace cure => ../..
