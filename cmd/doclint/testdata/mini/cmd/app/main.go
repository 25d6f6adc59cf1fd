// Command app is the fixture's one non-test consumer of package a.
package main

import (
	"fmt"
	"strconv"

	"mini/internal/a"
)

// Shaper is satisfied by a.T, and called.
type Shaper interface{ Shape() int }

// Sizer is satisfied by a.T, and never called.
type Sizer interface{ Size() int }

// job has a field named like a.T's Spec method.
type job struct{ Spec int }

func main() {
	var s Shaper = a.T{}
	var z Sizer = a.T{}
	a.U{}.Run()
	fmt.Println(a.Used(), s.Shape(), z, job{}.Spec, strconv.Quote("q"))
}
