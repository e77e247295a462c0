package mesh

import (
	"cmp"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"
)

func TestNewDimensions(t *testing.T) {
	cases := []struct {
		w, h int
	}{
		{1, 1}, {2, 2}, {6, 6}, {8, 8}, {4, 2},
	}
	for _, c := range cases {
		m := New(c.w, c.h)
		if m.Width() != c.w || m.Height() != c.h {
			t.Errorf("New(%d,%d): got %dx%d", c.w, c.h, m.Width(), m.Height())
		}
		if m.Tiles() != c.w*c.h {
			t.Errorf("New(%d,%d): Tiles=%d", c.w, c.h, m.Tiles())
		}
	}
}

func TestNewPanicsOnInvalid(t *testing.T) {
	for _, dims := range [][2]int{{0, 1}, {1, 0}, {-1, 4}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%d,%d) did not panic", dims[0], dims[1])
				}
			}()
			New(dims[0], dims[1])
		}()
	}
}

func TestCoordsRoundTrip(t *testing.T) {
	m := New(8, 8)
	for i := 0; i < m.Tiles(); i++ {
		x, y := m.Coords(Tile(i))
		if m.TileAt(x, y) != Tile(i) {
			t.Fatalf("tile %d: coords (%d,%d) round-trips to %d", i, x, y, m.TileAt(x, y))
		}
	}
}

func TestDistanceKnownValues(t *testing.T) {
	m := New(8, 8)
	cases := []struct {
		a, b Tile
		want int
	}{
		{0, 0, 0},
		{0, 7, 7},   // across top row
		{0, 56, 7},  // down left column
		{0, 63, 14}, // corner to corner
		{m.TileAt(3, 3), m.TileAt(4, 3), 1},
		{m.TileAt(3, 3), m.TileAt(4, 4), 2},
	}
	for _, c := range cases {
		if got := m.Distance(c.a, c.b); got != c.want {
			t.Errorf("Distance(%d,%d)=%d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestDistanceMetricProperties(t *testing.T) {
	m := New(6, 6)
	n := m.Tiles()
	cfg := &quick.Config{
		MaxCount: 500,
		Values: func(v []reflect.Value, r *rand.Rand) {
			v[0] = reflect.ValueOf(Tile(r.Intn(n)))
			v[1] = reflect.ValueOf(Tile(r.Intn(n)))
			v[2] = reflect.ValueOf(Tile(r.Intn(n)))
		},
	}
	// Symmetry, identity, triangle inequality.
	prop := func(a, b, c Tile) bool {
		if m.Distance(a, b) != m.Distance(b, a) {
			return false
		}
		if (m.Distance(a, b) == 0) != (a == b) {
			return false
		}
		return m.Distance(a, c) <= m.Distance(a, b)+m.Distance(b, c)
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}

// ringOrder collects the tiles and distances a cursor from c produces.
func ringOrder(m *Topology, c Tile) (tiles []Tile, dists []int) {
	cur := m.RingFrom(c)
	for {
		tl, ok := cur.Next()
		if !ok {
			return tiles, dists
		}
		tiles = append(tiles, tl)
		dists = append(dists, cur.Dist())
	}
}

func TestByDistanceOrdering(t *testing.T) {
	m := New(8, 8)
	for c := 0; c < m.Tiles(); c++ {
		order, _ := ringOrder(m, Tile(c))
		if len(order) != m.Tiles() {
			t.Fatalf("ring from %d: len=%d", c, len(order))
		}
		if order[0] != Tile(c) {
			t.Errorf("ring from %d: first tile is %d, want center", c, order[0])
		}
		seen := make(map[Tile]bool)
		prev := -1
		for _, tl := range order {
			if seen[tl] {
				t.Fatalf("ring from %d: duplicate tile %d", c, tl)
			}
			seen[tl] = true
			d := m.Distance(Tile(c), tl)
			if d < prev {
				t.Fatalf("ring from %d: distance decreased (%d after %d)", c, d, prev)
			}
			prev = d
		}
	}
}

func TestByDistanceDeterministicTieBreak(t *testing.T) {
	a, _ := ringOrder(New(4, 4), 0)
	b, _ := ringOrder(New(4, 4), 0)
	// Ties at equal distance go to the lower tile index.
	want := []Tile{0, 1, 4, 2, 5, 8, 3, 6, 9, 12, 7, 10, 13, 11, 14, 15}
	if !reflect.DeepEqual(a, want) || !reflect.DeepEqual(b, want) {
		t.Fatalf("ring from 0 on 4x4 = %v / %v, want %v", a, b, want)
	}
}

// topoTestDims cover degenerate strips, non-square meshes, and even and odd
// centers, and stay small enough to check every center exhaustively.
var topoTestDims = [][2]int{{1, 1}, {1, 7}, {5, 1}, {2, 2}, {4, 4}, {5, 3}, {3, 8}, {8, 8}, {9, 5}, {16, 16}, {13, 29}}

// refDist is the reference Manhattan hop count between tiles a and b of a
// width-w mesh.
func refDist(w, a, b int) int {
	dx, dy := a%w-b%w, a/w-b/w
	return max(dx, -dx) + max(dy, -dy)
}

// TestByDistanceMatchesStableSort checks the ring order against a brute-force
// reference on every center: the cursor order must be exactly a stable sort
// of all tiles by Manhattan distance (ties by ascending index — placement
// tie-breaks are sensitive to the last entry, so this is a bit-identity
// property), and Dist must be the reference hop count.
func TestByDistanceMatchesStableSort(t *testing.T) {
	for _, dims := range topoTestDims {
		w, h := dims[0], dims[1]
		m := New(w, h)
		n := w * h
		for c := 0; c < n; c++ {
			want := make([]Tile, n)
			for i := range want {
				want[i] = Tile(i)
			}
			slices.SortStableFunc(want, func(a, b Tile) int {
				return cmp.Compare(refDist(w, c, int(a)), refDist(w, c, int(b)))
			})
			got, dists := ringOrder(m, Tile(c))
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%dx%d: ring from %d = %v, want %v", w, h, c, got, want)
			}
			for i, tl := range got {
				if dists[i] != refDist(w, c, int(tl)) {
					t.Fatalf("%dx%d: ring from %d: Dist at tile %d = %d, want %d", w, h, c, tl, dists[i], refDist(w, c, int(tl)))
				}
			}
		}
	}
}

// TestLazyMatchesEager checks that the topology, which stores nothing per
// tile pair and answers every query on demand, agrees with eagerly
// materialized reference tables: the full distance matrix, its maximum, and
// every float mean accumulated explicitly in tile order, bit for bit.
func TestLazyMatchesEager(t *testing.T) {
	for _, dims := range topoTestDims {
		w, h := dims[0], dims[1]
		m := New(w, h)
		n := w * h
		matrix := make([][]int, n)
		maxDist := 0
		for a := range matrix {
			matrix[a] = make([]int, n)
			for b := range matrix[a] {
				matrix[a][b] = refDist(w, a, b)
				maxDist = max(maxDist, matrix[a][b])
			}
		}
		if got := m.MaxDistance(); got != maxDist {
			t.Fatalf("%dx%d: MaxDistance = %d, want %d", w, h, got, maxDist)
		}
		meanMC := 0.0
		for a := 0; a < n; a++ {
			sum := 0.0
			for b := 0; b < n; b++ {
				if got := m.Distance(Tile(a), Tile(b)); got != matrix[a][b] {
					t.Fatalf("%dx%d: Distance(%d,%d) = %d, want %d", w, h, a, b, got, matrix[a][b])
				}
				sum += float64(matrix[a][b])
			}
			if got, want := m.MeanDistanceFrom(Tile(a)), sum/float64(n); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%dx%d: MeanDistanceFrom(%d) = %v, want %v", w, h, a, got, want)
			}
			mcSum := 0
			for _, mc := range m.memControllers {
				mcSum += matrix[a][mc]
			}
			wantMC := float64(mcSum) / float64(len(m.memControllers))
			if got := m.AvgMemDistance(Tile(a)); math.Float64bits(got) != math.Float64bits(wantMC) {
				t.Fatalf("%dx%d: AvgMemDistance(%d) = %v, want %v", w, h, a, got, wantMC)
			}
			meanMC += wantMC
		}
		if got, want := m.MeanMemDistance(), meanMC/float64(n); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%dx%d: MeanMemDistance = %v, want %v", w, h, got, want)
		}
	}
}

// TestRingCursorOrder checks the cursor mechanics on every center: the
// on-mesh entries of the shared Offsets table are exactly the cursor's
// sequence, Coords names each tile's coordinates, Dist never decreases, the cursor yields each tile once and then
// stays exhausted, and a copied cursor resumes independently from the point
// of the copy.
func TestRingCursorOrder(t *testing.T) {
	for _, dims := range topoTestDims {
		w, h := dims[0], dims[1]
		m := New(w, h)
		n := m.Tiles()
		for c := 0; c < n; c++ {
			cx, cy := m.Coords(Tile(c))
			var want []Tile
			for _, o := range m.Offsets() {
				x, y := cx+int(o.DX), cy+int(o.DY)
				if x >= 0 && x < w && y >= 0 && y < h {
					want = append(want, m.TileAt(x, y))
				}
			}
			if len(want) != n {
				t.Fatalf("%dx%d: Offsets from %d reach %d tiles, want %d", w, h, c, len(want), n)
			}
			cur := m.RingFrom(Tile(c))
			var fork RingCursor
			prev := -1
			for i := 0; i < n; i++ {
				if i == n/2 {
					fork = cur
				}
				tile, ok := cur.Next()
				if !ok {
					t.Fatalf("%dx%d: cursor from %d ended after %d of %d tiles", w, h, c, i, n)
				}
				if tile != want[i] {
					t.Fatalf("%dx%d: cursor from %d: tile %d is %d, want %d", w, h, c, i, tile, want[i])
				}
				if x, y := cur.Coords(); m.TileAt(x, y) != tile {
					t.Fatalf("%dx%d: cursor from %d: tile %d reported at (%d, %d)", w, h, c, tile, x, y)
				}
				if d := cur.Dist(); d < prev {
					t.Fatalf("%dx%d: cursor from %d: distance decreased to %d", w, h, c, d)
				} else {
					prev = d
				}
			}
			for range 2 {
				if _, ok := cur.Next(); ok {
					t.Fatalf("%dx%d: cursor from %d produced more than %d tiles", w, h, c, n)
				}
			}
			for i := n / 2; i < n; i++ {
				if tile, ok := fork.Next(); !ok || tile != want[i] {
					t.Fatalf("%dx%d: copied cursor from %d: tile %d is %d (ok=%v), want %d", w, h, c, i, tile, ok, want[i])
				}
			}
			if _, ok := fork.Next(); ok {
				t.Fatalf("%dx%d: copied cursor from %d produced more than %d tiles", w, h, c, n)
			}
		}
	}
}

func TestRings(t *testing.T) {
	m := New(8, 8)
	if got, want := m.MaxDistance(), 14; got != want {
		t.Fatalf("MaxDistance=%d, want %d", got, want)
	}
	for c := 0; c < m.Tiles(); c++ {
		// The tiles the cursor yields at distance d form exactly ring d, in
		// ascending index order.
		order, dists := ringOrder(m, Tile(c))
		for i, tl := range order {
			if m.Distance(Tile(c), tl) != dists[i] {
				t.Fatalf("ring from %d: tile %d reported at distance %d, is %d", c, tl, dists[i], m.Distance(Tile(c), tl))
			}
			if i > 0 && dists[i-1] == dists[i] && order[i-1] >= tl {
				t.Fatalf("ring %d from %d not in ascending index order", dists[i], c)
			}
		}
	}
	// Center of the chip: ring d has 4d tiles while it fits.
	_, dists := ringOrder(m, m.CenterTile())
	ringSize := make(map[int]int)
	for _, d := range dists {
		ringSize[d]++
	}
	if ringSize[1] != 4 || ringSize[2] != 8 {
		t.Errorf("center rings 1 and 2 have %d and %d tiles, want 4 and 8", ringSize[1], ringSize[2])
	}
}

// radiusCovering is the radius of a compact k-tile footprint around c: the
// distance of the k-th tile in ring order.
func radiusCovering(m *Topology, c Tile, k int) int {
	_, dists := ringOrder(m, c)
	return dists[min(max(k, 1), len(dists))-1]
}

func TestRadiusCovering(t *testing.T) {
	m := New(8, 8)
	center := m.CenterTile()
	cases := []struct {
		k, want int
	}{
		// Center is (3,3): the far corner (7,7) sits at distance 8, so
		// covering all 64 tiles needs radius 8.
		{0, 0}, {1, 0}, {2, 1}, {5, 1}, {6, 2}, {13, 2}, {64, 8},
	}
	for _, c := range cases {
		if got := radiusCovering(m, center, c.k); got != c.want {
			t.Errorf("radiusCovering(center,%d)=%d, want %d", c.k, got, c.want)
		}
	}
	// Property: the first k tiles of a ring are the most compact k-tile
	// footprint: radius r covers at least k tiles, and r-1 does not.
	within := func(c Tile, r int) int {
		count := 0
		for b := 0; b < m.Tiles(); b++ {
			if m.Distance(c, Tile(b)) <= r {
				count++
			}
		}
		return count
	}
	for c := 0; c < m.Tiles(); c++ {
		for _, k := range []int{1, 3, 7, 20, 64} {
			r := radiusCovering(m, Tile(c), k)
			if within(Tile(c), r) < k {
				t.Fatalf("radiusCovering(%d,%d)=%d covers only %d", c, k, r, within(Tile(c), r))
			}
			if r > 0 && within(Tile(c), r-1) >= k {
				t.Fatalf("radiusCovering(%d,%d)=%d not minimal", c, k, r)
			}
		}
	}
}

func TestMemControllers(t *testing.T) {
	m := New(8, 8)
	mcs := m.memControllers
	if len(mcs) != 8 {
		t.Fatalf("8x8 mesh: %d controllers, want 8", len(mcs))
	}
	for _, mc := range mcs {
		x, y := m.Coords(mc)
		if x != 0 && x != 7 && y != 0 && y != 7 {
			t.Errorf("controller %d at (%d,%d) is not on an edge", mc, x, y)
		}
	}
}

func TestMemControllersSmallMesh(t *testing.T) {
	m := New(1, 1)
	if len(m.memControllers) != 1 {
		t.Fatalf("1x1 mesh should have one controller")
	}
}

func TestAvgMemDistanceSymmetricTiles(t *testing.T) {
	m := New(8, 8)
	// Chip is symmetric under 180-degree rotation, so opposite corners see
	// the same average MC distance.
	if d1, d2 := m.AvgMemDistance(0), m.AvgMemDistance(63); !close(d1, d2, 1e-9) {
		t.Errorf("corner MC distances differ: %f vs %f", d1, d2)
	}
	// Center tiles should be no farther from MCs than the worst corner... and
	// all distances are positive on an 8x8 mesh.
	for i := 0; i < m.Tiles(); i++ {
		if m.AvgMemDistance(Tile(i)) <= 0 {
			t.Errorf("tile %d: non-positive MC distance", i)
		}
	}
}

func TestCenterTile(t *testing.T) {
	if c := New(8, 8).CenterTile(); c != Tile(3*8+3) {
		t.Errorf("8x8 center = %d, want 27", c)
	}
	if c := New(3, 3).CenterTile(); c != Tile(1*3+1) {
		t.Errorf("3x3 center = %d, want 4", c)
	}
}

func TestCenterOfMass(t *testing.T) {
	m := New(8, 8)
	// Single tile: center of mass is that tile.
	x, y := m.CenterOfMass(map[Tile]float64{m.TileAt(2, 5): 3.0})
	if !close(x, 2, 1e-9) || !close(y, 5, 1e-9) {
		t.Errorf("single-tile CoM = (%f,%f), want (2,5)", x, y)
	}
	// Two equal weights: midpoint.
	x, y = m.CenterOfMass(map[Tile]float64{m.TileAt(0, 0): 1, m.TileAt(4, 2): 1})
	if !close(x, 2, 1e-9) || !close(y, 1, 1e-9) {
		t.Errorf("two-tile CoM = (%f,%f), want (2,1)", x, y)
	}
	// Zero weight: chip center.
	x, y = m.CenterOfMass(nil)
	cx, cy := m.Coords(m.CenterTile())
	if !close(x, float64(cx), 1e-9) || !close(y, float64(cy), 1e-9) {
		t.Errorf("empty CoM = (%f,%f), want center (%d,%d)", x, y, cx, cy)
	}
}

func TestNearestTileClamps(t *testing.T) {
	m := New(8, 8)
	cases := []struct {
		x, y float64
		want Tile
	}{
		{0, 0, 0},
		{7.4, 7.4, 63},
		{-3, -3, 0},
		{100, 100, 63},
		{3.6, 0, m.TileAt(4, 0)},
	}
	for _, c := range cases {
		if got := m.NearestTile(c.x, c.y); got != c.want {
			t.Errorf("NearestTile(%f,%f)=%d, want %d", c.x, c.y, got, c.want)
		}
	}
}

func TestDistanceToPoint(t *testing.T) {
	m := New(8, 8)
	if d := m.DistanceToPoint(m.TileAt(3, 3), 3, 3); d != 0 {
		t.Errorf("distance to own point = %f", d)
	}
	if d := m.DistanceToPoint(m.TileAt(0, 0), 1.5, 2.5); !close(d, 4, 1e-9) {
		t.Errorf("distance = %f, want 4", d)
	}
}

func close(a, b, eps float64) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	return d <= eps
}
