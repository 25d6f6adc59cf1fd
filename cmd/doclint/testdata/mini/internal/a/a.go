// Package a is the reachability fixture's library: one exported name
// of each kind rule 3 must judge.
package a

import "fmt"

// Unused is reached by nothing but a_test.go.
func Unused() {}

// Used is called from cmd/app.
func Used() int { return helper() }

// Local is named only inside its own package.
func Local() int { return 1 }

func helper() int { return Local() }

// Allowed is reached only from tests, and allow-listed.
func Allowed() {}

// T carries one method of each kind.
type T struct{}

// Dead is a method nothing outside a_test.go selects.
func (T) Dead() {}

// Shape satisfies the Shaper interface cmd/app declares.
func (T) Shape() int { return 0 }

// String satisfies fmt.Stringer.
func (T) String() string { return fmt.Sprint("t") }

// Quote shares its name with strconv.Quote, which cmd/app calls; a
// package's function selects no method.
func (T) Quote() {}
