//go:build !race

package hpfexec

// raceEnabled reports a -race build (see race_on_test.go).
const raceEnabled = false
