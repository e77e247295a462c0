// Package mesh models the on-chip network of a tiled CMP: a 2-D mesh with
// X-Y routing, one tile per router, and memory controllers at the chip edges.
//
// The rest of the system measures locality in router-to-router hop counts on
// this mesh (the paper's D(t1, t2) distance function). All placement
// algorithms in internal/place and internal/core consume distances through
// this package, so alternative topologies only need to implement the same
// distance interface.
//
// Memory model: a Topology is O(tiles) at every size. Distances come from
// coordinate arithmetic, and the "tiles in order of distance from a center"
// walks the placement steps need all read one shared table of relative
// offsets (see RingCursor). The per-tile mean distances are computed in
// closed form; integer hop counts and integer-sum means have exact float64
// representations, so they equal an explicit accumulation over all tile
// pairs bit for bit.
package mesh

import (
	"fmt"
	"maps"
	"slices"
	"sync"
)

// Tile identifies a tile (core + LLC bank slice) by its index in row-major
// order: tile = y*Width + x.
type Tile int

// Offset is a displacement from a center tile, in tiles.
type Offset struct{ DX, DY int32 }

// coord is a tile's (x, y) position.
type coord struct{ x, y int32 }

// Topology is an immutable W×H mesh. The zero value is not usable; construct
// with New.
type Topology struct {
	width  int
	height int

	// xy[t] is tile t's position, so coordinate and distance queries are
	// loads and subtractions rather than integer divisions.
	xy []coord

	// order lists every displacement (dx, dy) with |dx| < width and
	// |dy| < height, sorted by (|dx|+|dy|, dy, dx). For a center c, the
	// displacements that land on the mesh visit tiles in ascending distance
	// from c, and within one distance in ascending row then column, which is
	// ascending tile index. (2·width-1)·(2·height-1) entries: O(tiles).
	order []Offset

	// memControllers are the tiles adjacent to memory controllers. Pages are
	// interleaved across controllers, so the average distance from a tile to
	// all controllers is what matters for LLC-to-memory traffic.
	memControllers []Tile

	// avgMCDist[t] is the mean distance from tile t to the memory controllers.
	avgMCDist []float64

	// avgDist[t] is the mean distance from tile t to all tiles (the expected
	// hop count from t to a uniformly hashed bank).
	avgDist []float64

	// meanMCDist is the mean of avgMCDist over all tiles.
	meanMCDist float64

	// clusters is the default cluster view (built on first use; see
	// Clusters).
	clustersOnce sync.Once
	clusters     *Clusters
}

// New builds a width×height mesh. It panics if either dimension is < 1;
// topology construction errors are programming errors, not runtime input.
func New(width, height int) *Topology {
	if width < 1 || height < 1 {
		panic(fmt.Sprintf("mesh: invalid dimensions %dx%d", width, height))
	}
	n := width * height
	t := &Topology{width: width, height: height}

	t.xy = make([]coord, n)
	for a := range t.xy {
		t.xy[a] = coord{int32(a % width), int32(a / width)}
	}

	// Emit the offsets shell by shell: for distance d, rows dy ascending and,
	// within a row, the left arm before the right. That is the sorted order
	// directly, with no sort.
	t.order = make([]Offset, 0, (2*width-1)*(2*height-1))
	for d := 0; d <= t.MaxDistance(); d++ {
		for dy := -min(d, height-1); dy <= min(d, height-1); dy++ {
			dx := d - abs(dy)
			if dx >= width {
				continue
			}
			if dx > 0 {
				t.order = append(t.order, Offset{int32(-dx), int32(dy)})
			}
			t.order = append(t.order, Offset{int32(dx), int32(dy)})
		}
	}

	t.memControllers = edgeControllers(width, height)
	t.avgMCDist = make([]float64, n)
	for a := 0; a < n; a++ {
		sum := 0
		for _, mc := range t.memControllers {
			sum += t.Distance(Tile(a), mc)
		}
		t.avgMCDist[a] = float64(sum) / float64(len(t.memControllers))
	}

	// Closed-form per-tile distance sums. The sum of |ax-x| over a row (and
	// |ay-y| over a column) is a pair of triangular numbers, so the total
	// distance from tile a to all tiles is h·Sx(ax) + w·Sy(ay). These are
	// exact integers well below 2^53, so float64(sum)/n equals a float64
	// accumulation of the individual hop counts bit for bit.
	lineSum := func(p, n int) int { return p*(p+1)/2 + (n-1-p)*(n-p)/2 }
	t.avgDist = make([]float64, n)
	for a := 0; a < n; a++ {
		x, y := t.Coords(Tile(a))
		sum := height*lineSum(x, width) + width*lineSum(y, height)
		t.avgDist[a] = float64(sum) / float64(n)
	}

	meanMC := 0.0
	for a := 0; a < n; a++ {
		meanMC += t.avgMCDist[a]
	}
	t.meanMCDist = meanMC / float64(n)

	return t
}

// edgeControllers spreads 8 memory controllers around the chip edge (2 per
// side, as in the paper's Fig. 3), degrading gracefully for small meshes.
func edgeControllers(width, height int) []Tile {
	at := func(x, y int) Tile { return Tile(y*width + x) }
	if width < 2 || height < 2 {
		// Degenerate mesh: put a single controller at tile 0.
		return []Tile{0}
	}
	third := func(n int) (int, int) { return n / 3, (2 * n) / 3 }
	x1, x2 := third(width)
	y1, y2 := third(height)
	mcs := []Tile{
		at(x1, 0), at(x2, 0), // top edge
		at(x1, height-1), at(x2, height-1), // bottom edge
		at(0, y1), at(0, y2), // left edge
		at(width-1, y1), at(width-1, y2), // right edge
	}
	// Dedup (small meshes can collapse positions).
	out := mcs[:0]
	for _, m := range mcs {
		if !slices.Contains(out, m) {
			out = append(out, m)
		}
	}
	return out
}

// Width returns the mesh width in tiles.
func (t *Topology) Width() int { return t.width }

// Height returns the mesh height in tiles.
func (t *Topology) Height() int { return t.height }

// Tiles returns the number of tiles in the mesh.
func (t *Topology) Tiles() int { return t.width * t.height }

// Coords returns the (x, y) coordinates of a tile.
func (t *Topology) Coords(tile Tile) (x, y int) {
	p := t.xy[tile]
	return int(p.x), int(p.y)
}

// TileAt returns the tile at coordinates (x, y).
func (t *Topology) TileAt(x, y int) Tile {
	return Tile(y*t.width + x)
}

// Distance returns the X-Y routing hop count between two tiles.
func (t *Topology) Distance(a, b Tile) int {
	pa, pb := t.xy[a], t.xy[b]
	return abs(int(pa.x-pb.x)) + abs(int(pa.y-pb.y))
}

// MeanDistanceFrom returns the mean hop count from tile a to all tiles: the
// expected distance to a uniformly hashed bank (S-NUCA's per-core distance).
func (t *Topology) MeanDistanceFrom(a Tile) float64 {
	return t.avgDist[a]
}

// MeanMemDistance returns the mean over all tiles of the average distance to
// the memory controllers (the chip-wide expected LLC-to-memory distance).
func (t *Topology) MeanMemDistance() float64 {
	return t.meanMCDist
}

// MaxDistance returns the mesh diameter: the largest possible hop count
// between two tiles (corner to corner).
func (t *Topology) MaxDistance() int {
	return t.width - 1 + t.height - 1
}

// AvgMemDistance returns the mean hop count from tile a to the memory
// controllers (pages are interleaved across controllers).
func (t *Topology) AvgMemDistance(a Tile) float64 {
	return t.avgMCDist[a]
}

// CenterTile returns a tile closest to the geometric center of the chip. For
// even dimensions it picks the upper-left of the four central tiles, matching
// the paper's convention of placing large VCs "around the center of the chip".
func (t *Topology) CenterTile() Tile {
	return t.TileAt((t.width-1)/2, (t.height-1)/2)
}

// CenterOfMass computes the continuous center of mass of a weighted set of
// tiles and returns it as fractional coordinates. Zero total weight returns
// the chip center. Tiles are accumulated in index order so the result does
// not depend on map iteration order (placement tie-breaks are sensitive to
// the last ulp).
func (t *Topology) CenterOfMass(weight map[Tile]float64) (x, y float64) {
	var wx, wy, wsum float64
	for _, tile := range slices.Sorted(maps.Keys(weight)) {
		w := weight[tile]
		tx, ty := t.Coords(tile)
		wx += w * float64(tx)
		wy += w * float64(ty)
		wsum += w
	}
	if wsum == 0 {
		cx, cy := t.Coords(t.CenterTile())
		return float64(cx), float64(cy)
	}
	return wx / wsum, wy / wsum
}

// NearestTile maps fractional coordinates back to the nearest tile, clamping
// to the mesh boundary.
func (t *Topology) NearestTile(x, y float64) Tile {
	xi := clamp(int(x+0.5), 0, t.width-1)
	yi := clamp(int(y+0.5), 0, t.height-1)
	return t.TileAt(xi, yi)
}

// DistanceToPoint returns the Manhattan distance from a tile to fractional
// coordinates (used to rank cores around a thread's center of mass).
func (t *Topology) DistanceToPoint(tile Tile, x, y float64) float64 {
	tx, ty := t.Coords(tile)
	return absF(float64(tx)-x) + absF(float64(ty)-y)
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

func absF(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}

func clamp(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
