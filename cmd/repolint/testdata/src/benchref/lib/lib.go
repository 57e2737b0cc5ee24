// Package lib is a module whose only caller is its bench/ module.
package lib

// BenchOnly is called only by the bench module: alive.
func BenchOnly() int { return 1 }

// Dead is called by nothing.
func Dead() int { return 2 }
