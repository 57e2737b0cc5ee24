// Package main is the fixture's benchmark module: its references keep
// symbols alive too.
package main

import "deadsym/internal/used"

func main() { println(used.BenchOnly()) }
