module dias/benchmark

go 1.24

require dias v0.0.0

replace dias => ../
