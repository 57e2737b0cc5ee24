module hitlist6/bench

go 1.24

require hitlist6 v0.0.0

replace hitlist6 => ../
