// Package orphan is imported by nothing.
package orphan

// Hello is never reported on its own: its whole package is unreached.
func Hello() string { return "hello" }
