module keybin2/bench

go 1.22

require keybin2 v0.0.0

replace keybin2 => ../
