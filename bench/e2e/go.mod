module tkplq/bench/e2e

go 1.24

require tkplq v0.0.0

replace tkplq => ../..
