module vrdag/bench

go 1.24

require vrdag v0.0.0

replace vrdag => ../
