module cham/benchmark

go 1.22

require cham v0.0.0

replace cham => ../
