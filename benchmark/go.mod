module prorp/benchmark

go 1.22

require prorp v0.0.0

replace prorp => ../
