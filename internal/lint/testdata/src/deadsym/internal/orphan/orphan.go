// Package orphan is imported by nothing.
package orphan // want `package deadsym/internal/orphan is imported by no non-test package`

func unused() {}
