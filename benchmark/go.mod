module lpath/benchmark

go 1.23

require lpath v0.0.0

replace lpath => ../
