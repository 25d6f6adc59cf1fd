package a

import "testing"

func TestReachesEverything(t *testing.T) {
	Unused()
	Allowed()
	T{}.Dead()
}
