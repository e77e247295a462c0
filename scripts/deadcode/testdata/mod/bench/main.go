// Command bench is a main package in a second module that reaches lib
// through a replace directive.
package main

import "fix/lib"

func main() { println(lib.BenchOnly()) }
