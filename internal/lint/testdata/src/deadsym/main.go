// Package main is the fixture module's one program: what it references
// is alive.
package main

import "deadsym/internal/used"

func main() {
	used.Live()
	println(used.Total([]used.Shape{used.Square{Side: 2}}))
}
