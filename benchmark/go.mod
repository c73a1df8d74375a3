module clientlog/benchmark

go 1.22

require clientlog v0.0.0

replace clientlog => ../
