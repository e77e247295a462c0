// Package fix is the module's root package: its exported API is a root.
package fix

import "fix/lib"

// Run calls Area only through the Shape interface.
func Run() float64 {
	var s lib.Shape = lib.Square{Side: 2}
	return s.Area() + lib.Used()
}
