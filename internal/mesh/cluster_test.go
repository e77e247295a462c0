package mesh

import "testing"

// checkPartition asserts the cluster-view invariants the hierarchical
// placement path depends on: every fine tile belongs to exactly one cluster,
// the Of map agrees with Bounds, counts sum to the tile count, centroids and
// representatives lie inside their cluster, and the coarse mesh's distances
// are a metric (symmetric, triangle-consistent) over the clusters.
func checkPartition(t *testing.T, w, h, maxClusters int) {
	t.Helper()
	topo := New(w, h)
	cl := NewClusters(topo, maxClusters)
	if cl.N() > maxClusters {
		t.Fatalf("%dx%d/%d: %d clusters exceed the bound", w, h, maxClusters, cl.N())
	}
	if cl.base != topo {
		t.Fatalf("%dx%d/%d: Base does not round-trip", w, h, maxClusters)
	}
	if got := cl.Coarse().Tiles(); got != cl.N() {
		t.Fatalf("%dx%d/%d: coarse mesh has %d tiles, N()=%d", w, h, maxClusters, got, cl.N())
	}

	// Exactly-one-cluster: membership via Of must match membership via
	// Bounds, and each tile must fall in precisely one cluster's rectangle.
	seen := make([]int, topo.Tiles())
	total := 0
	for c := 0; c < cl.N(); c++ {
		ct := Tile(c)
		x0, y0, x1, y1 := cl.Bounds(ct)
		if x0 >= x1 || y0 >= y1 {
			t.Fatalf("%dx%d/%d: cluster %d has empty bounds [%d,%d)x[%d,%d)", w, h, maxClusters, c, x0, x1, y0, y1)
		}
		if got := (x1 - x0) * (y1 - y0); got != cl.Count(ct) {
			t.Fatalf("%dx%d/%d: cluster %d Count=%d, bounds give %d", w, h, maxClusters, c, cl.Count(ct), got)
		}
		total += cl.Count(ct)
		for y := y0; y < y1; y++ {
			for x := x0; x < x1; x++ {
				tile := topo.TileAt(x, y)
				seen[tile]++
				if cl.Of(tile) != ct {
					t.Fatalf("%dx%d/%d: tile %d in cluster %d's bounds but Of=%d", w, h, maxClusters, tile, c, cl.Of(tile))
				}
			}
		}
		cx, cy := cl.Centroid(ct)
		if cx < float64(x0) || cx > float64(x1-1) || cy < float64(y0) || cy > float64(y1-1) {
			t.Fatalf("%dx%d/%d: cluster %d centroid (%g,%g) outside bounds", w, h, maxClusters, c, cx, cy)
		}
		if cl.Of(cl.Rep(ct)) != ct {
			t.Fatalf("%dx%d/%d: cluster %d representative %d is in cluster %d", w, h, maxClusters, c, cl.Rep(ct), cl.Of(cl.Rep(ct)))
		}
	}
	if total != topo.Tiles() {
		t.Fatalf("%dx%d/%d: cluster counts sum to %d of %d tiles", w, h, maxClusters, total, topo.Tiles())
	}
	for tile, k := range seen {
		if k != 1 {
			t.Fatalf("%dx%d/%d: tile %d covered by %d clusters", w, h, maxClusters, tile, k)
		}
	}

	// Cluster distances: symmetric and triangle-consistent (a metric on the
	// coarse mesh). Bounded triple scan — coarse meshes are small.
	co := cl.Coarse()
	n := co.Tiles()
	for a := 0; a < n; a++ {
		for b := 0; b < n; b++ {
			if co.Distance(Tile(a), Tile(b)) != co.Distance(Tile(b), Tile(a)) {
				t.Fatalf("%dx%d/%d: cluster distance asymmetric at (%d,%d)", w, h, maxClusters, a, b)
			}
		}
	}
	step := 1
	if n > 24 {
		step = n / 24
	}
	for a := 0; a < n; a += step {
		for b := 0; b < n; b += step {
			for c := 0; c < n; c += step {
				ab := co.Distance(Tile(a), Tile(b))
				bc := co.Distance(Tile(b), Tile(c))
				ac := co.Distance(Tile(a), Tile(c))
				if ac > ab+bc {
					t.Fatalf("%dx%d/%d: triangle violation d(%d,%d)=%d > %d+%d", w, h, maxClusters, a, c, ac, ab, bc)
				}
			}
		}
	}
}

func TestClustersPartition(t *testing.T) {
	cases := []struct{ w, h, max int }{
		{1, 1, 1}, {8, 8, 4}, {8, 8, 64}, {8, 8, 256}, {16, 16, 16},
		{12, 5, 6}, {5, 12, 6}, {7, 7, 10}, {64, 1, 16}, {1, 64, 16},
		{33, 17, 25},
	}
	for _, c := range cases {
		checkPartition(t, c.w, c.h, c.max)
	}
}

// TestClustersDefaultView pins the production geometry: a 128×128 mesh under
// DefaultMaxClusters splits into 16×16 clusters of side 8, and the view is
// memoized on the topology.
func TestClustersDefaultView(t *testing.T) {
	topo := New(128, 128)
	cl := topo.Clusters()
	if cl != topo.Clusters() {
		t.Error("Clusters() not memoized")
	}
	if cl.N() != 256 || cl.Side() != 8 {
		t.Errorf("128x128 default view: %d clusters of side %d, want 256 of side 8", cl.N(), cl.Side())
	}
	small := New(8, 8)
	if v := small.Clusters(); v.N() != 64 || v.Side() != 1 {
		t.Errorf("8x8 default view: %d clusters of side %d, want 64 of side 1 (identity)", v.N(), v.Side())
	}
}

// FuzzClusterPartition drives the partition invariants over arbitrary mesh
// shapes and cluster bounds.
func FuzzClusterPartition(f *testing.F) {
	f.Add(8, 8, 4)
	f.Add(128, 1, 16)
	f.Add(17, 23, 100)
	f.Add(1, 1, 1)
	f.Fuzz(func(t *testing.T, w, h, maxClusters int) {
		if w < 1 || h < 1 || w > 64 || h > 64 || maxClusters < 1 || maxClusters > 512 {
			t.Skip()
		}
		checkPartition(t, w, h, maxClusters)
	})
}
