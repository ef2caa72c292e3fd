module dhqp/benchmark

go 1.22

require dhqp v0.0.0

replace dhqp => ../
