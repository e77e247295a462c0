// Package lib is reached from the root package and from the bench module.
package lib

// Shape is an interface the root package calls through.
type Shape interface{ Area() float64 }

// Square implements Shape.
type Square struct{ Side float64 }

// Area is reached only through Shape.
func (s Square) Area() float64 { return s.Side * s.Side }

// Perimeter satisfies no interface and nothing calls it.
func (s Square) Perimeter() float64 { return 4 * s.Side }

// Used is called from the root package.
func Used() float64 { return one() }

// one is unexported and called from Used.
func one() float64 { return 1 }

// testOnly is unexported and called only from lib_test.go.
func testOnly() int { return 0 }

// init runs without being named, so it is never reported.
func init() { _ = one() }

// TestOnly is called only from lib_test.go and from its own body.
func TestOnly(n int) int {
	if n > 0 {
		return TestOnly(n - 1)
	}
	return 0
}

// BenchOnly is called only from the bench module.
func BenchOnly() int { return 3 }
