// Command app is the fixture's one non-test consumer of package a.
package main

import (
	"fmt"
	"strconv"

	"mini/internal/a"
)

// Shaper is satisfied by a.T.
type Shaper interface{ Shape() int }

func main() {
	var s Shaper = a.T{}
	fmt.Println(a.Used(), s, strconv.Quote("q"))
}
