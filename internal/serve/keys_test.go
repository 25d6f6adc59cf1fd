package serve

import "testing"

// TestContentAndPlacementKeysPinned holds ContentHash and PlacementKey
// to recorded digests for every problem shape a job can describe: a
// cached plan or a shard placement moves only when one of these rows
// is changed on purpose.
func TestContentAndPlacementKeysPinned(t *testing.T) {
	const upload = "%%MatrixMarket matrix coordinate real symmetric\n4 4 7\n1 1 2\n2 1 -1\n2 2 2\n3 2 -1\n3 3 2\n4 3 -1\n4 4 2\n"
	for _, c := range []struct {
		name               string
		spec               JobSpec
		content, placement string
	}{
		{"gen", JobSpec{Matrix: "laplace2d:32:32"}, "0e2f79f5bc33e0be", "0e2f79f5bc33e0be"},
		{"gen csr", JobSpec{Matrix: "laplace2d:32:32", Layout: "csr"}, "0e2f79f5bc33e0be", "0e2f79f5bc33e0be"},
		{"gen csc-serial", JobSpec{Matrix: "laplace2d:32:32", Layout: "csc-serial"}, "0e2f79f5bc33e0be", "0e2f79f5bc33e0be"},
		{"gen csc-merge", JobSpec{Matrix: "laplace2d:32:32", Layout: "csc-merge"}, "0e2f79f5bc33e0be", "0e2f79f5bc33e0be"},
		{"gen balanced", JobSpec{Matrix: "laplace2d:32:32", Layout: "balanced"}, "0e2f79f5bc33e0be", "0e2f79f5bc33e0be"},
		{"upload", JobSpec{MatrixMarket: upload}, "9aa134a575c47d11", "ce85822ff335ad75"},
		{"hpcg", JobSpec{Method: "hpcg", MG: &MGSpec{Nx: 8, Ny: 8, Nz: 8}}, "f082b8da8ad0068c", "f082b8da8ad0068c"},
		{"hpcg explicit", JobSpec{Method: "hpcg", MG: &MGSpec{Nx: 8, Ny: 8, Nz: 8, Levels: 2, Smooths: 2, Coarse: "smooth"}}, "7b012e7e7c84553b", "7b012e7e7c84553b"},
		{"hpcg direct", JobSpec{Method: "hpcg", MG: &MGSpec{Nx: 4, Ny: 6, Nz: 8, Levels: 3, Smooths: 1, Coarse: "direct"}}, "89e5f7718a01711a", "89e5f7718a01711a"},
		{"5pt", JobSpec{Method: "stencil", Stencil: &StencilSpec{Stencil: "5pt", Nx: 48, Ny: 48}}, "161de6e2f0e7413b", "161de6e2f0e7413b"},
		{"5pt coefficients", JobSpec{Method: "stencil", Stencil: &StencilSpec{Stencil: "5pt", Nx: 32, Ny: 24, Center: 1.8, Off: -0.2}}, "83cce243136d1aad", "83cce243136d1aad"},
		{"27pt", JobSpec{Method: "stencil", Stencil: &StencilSpec{Stencil: "27pt", Nx: 8, Ny: 8, Nz: 8}}, "85854e4b33d9f717", "85854e4b33d9f717"},
		{"27pt coefficients", JobSpec{Method: "stencil", Stencil: &StencilSpec{Stencil: "27pt", Nx: 6, Ny: 6, Nz: 8, Center: 30, Off: -1}}, "6944fa30f88c47e9", "6944fa30f88c47e9"},
	} {
		content, err := c.spec.ContentHash()
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if content != c.content || c.spec.PlacementKey() != c.placement {
			t.Errorf("%s: content %q placement %q, want %q %q", c.name, content, c.spec.PlacementKey(), c.content, c.placement)
		}
	}
}
