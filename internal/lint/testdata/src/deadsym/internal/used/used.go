// Package used exercises the deadsym analyzer: every case of what is
// alive, dead, exempt or suppressed.
package used

// Live is called by the program.
func Live() {}

// BenchOnly is called only by the bench module.
func BenchOnly() int { return 1 }

// TestOnly is called only from used_test.go.
func TestOnly() int { return 2 } // want `func TestOnly is used only by tests or not at all`

// Recur references only itself.
func Recur(n int) int { // want `func Recur is used only by tests or not at all`
	if n == 0 {
		return 0
	}
	return Recur(n - 1)
}

// Unused is read by nothing.
var Unused = 3 // want `var Unused is used only by tests or not at all`

// Lonely is named only by its own methods, which nothing calls.
type Lonely struct{ n int } // want `type Lonely is used only by tests or not at all`

// Bump is dead with its type.
func (l *Lonely) Bump() *Lonely { l.n++; return l } // want `method Lonely.Bump is used only by tests or not at all`

// Shape is how the program reaches Square's Area.
type Shape interface{ Area() float64 }

// Square's Area is reached only through Shape: never flagged.
type Square struct{ Side float64 }

// Area implements Shape.
func (s Square) Area() float64 { return s.Side * s.Side }

// Total sums the shapes' areas.
func Total(shapes []Shape) float64 {
	sum := 0.0
	for _, s := range shapes {
		sum += s.Area()
	}
	return sum
}

// Level is an iota enumeration: its unused values are never flagged,
// since deleting one would renumber the rest.
type Level int

// The levels.
const (
	Low Level = iota
	Mid
	High
)

// Helper is deliberate surface.
//
//lint:api the package's tests share it
func Helper() {}

// Bare carries a directive with no reason: the directive is the finding.
func Bare() {} /* want `//lint:api requires a justification` */ //lint:api
