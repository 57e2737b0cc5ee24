// Package main is the fixture's benchmark module.
package main

import "benchref/lib"

func main() { println(lib.BenchOnly()) }
