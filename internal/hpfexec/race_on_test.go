//go:build race

package hpfexec

// raceEnabled reports a -race build, whose instrumented kernels run
// the large auto-test grids ten times slower while they share every
// code path with the small ones.
const raceEnabled = true
