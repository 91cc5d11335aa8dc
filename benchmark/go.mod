module hbtree/benchmark

go 1.23

require hbtree v0.0.0

replace hbtree => ../
