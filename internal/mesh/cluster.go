package mesh

import "fmt"

// DefaultMaxClusters bounds the coarse mesh of the default cluster view to
// place.PruneThreshold tiles, so coarse-grained placement scans every cluster
// exhaustively — the exact-search machinery of the paper, applied one level
// up.
const DefaultMaxClusters = 256

// Clusters partitions a mesh into square super-tiles of side Side() (ragged
// at the right/bottom edges when the side does not divide the dimensions) and
// exposes the partition as a coarse Topology whose tiles are the clusters.
// Distances on the coarse mesh are exact inter-cluster Manhattan distances in
// cluster hops; multiply by Side() to approximate fine hops between cluster
// centroids (exact for interior clusters, off by at most the edge raggedness
// otherwise). Hierarchical placement (internal/place) places over the coarse
// mesh and refines within each cluster.
//
// A Clusters view is immutable and safe for concurrent use.
type Clusters struct {
	base   *Topology
	coarse *Topology
	side   int
	cw, ch int

	xOf, yOf []int // fine coordinate → cluster column / row
	count    []int // tiles per cluster, indexed by coarse tile
	cx, cy   []float64
	rep      []Tile
}

// Clusters returns the mesh's default cluster view (at most
// DefaultMaxClusters clusters), building it on first use. Meshes at or below
// DefaultMaxClusters tiles are their own view: one tile per cluster.
func (t *Topology) Clusters() *Clusters {
	t.clustersOnce.Do(func() { t.clusters = NewClusters(t, DefaultMaxClusters) })
	return t.clusters
}

// NewClusters partitions t into at most maxClusters square super-tiles. It
// panics when maxClusters < 1. Exported with an explicit bound so tests can
// force multi-tile clusters on small meshes.
func NewClusters(t *Topology, maxClusters int) *Clusters {
	if maxClusters < 1 {
		panic(fmt.Sprintf("mesh: invalid cluster bound %d", maxClusters))
	}
	w, h := t.width, t.height
	side := 1
	for ((w+side-1)/side)*((h+side-1)/side) > maxClusters {
		side++
	}
	cw, ch := (w+side-1)/side, (h+side-1)/side
	c := &Clusters{
		base: t, coarse: New(cw, ch), side: side, cw: cw, ch: ch,
		xOf: make([]int, w), yOf: make([]int, h),
		count: make([]int, cw*ch),
		cx:    make([]float64, cw*ch),
		cy:    make([]float64, cw*ch),
		rep:   make([]Tile, cw*ch),
	}
	for x := 0; x < w; x++ {
		c.xOf[x] = x / side
	}
	for y := 0; y < h; y++ {
		c.yOf[y] = y / side
	}
	for cl := 0; cl < cw*ch; cl++ {
		x0, y0, x1, y1 := c.Bounds(Tile(cl))
		c.count[cl] = (x1 - x0) * (y1 - y0)
		// Centroid of the covered rectangle, in fine fractional coordinates.
		c.cx[cl] = float64(x0+x1-1) / 2
		c.cy[cl] = float64(y0+y1-1) / 2
		c.rep[cl] = t.NearestTile(c.cx[cl], c.cy[cl])
	}
	return c
}

// Coarse returns the cluster-granularity mesh: one tile per cluster, row-
// major in cluster coordinates, distances in cluster hops.
func (c *Clusters) Coarse() *Topology { return c.coarse }

// Side returns the super-tile side length in fine tiles.
func (c *Clusters) Side() int { return c.side }

// N returns the number of clusters.
func (c *Clusters) N() int { return c.cw * c.ch }

// Of maps a fine tile to its cluster (a coarse-mesh tile).
func (c *Clusters) Of(t Tile) Tile {
	x, y := c.base.Coords(t)
	return Tile(c.yOf[y]*c.cw + c.xOf[x])
}

// Count returns the number of fine tiles in a cluster.
func (c *Clusters) Count(cl Tile) int { return c.count[cl] }

// Bounds returns the half-open fine-coordinate rectangle [x0,x1)×[y0,y1) a
// cluster covers.
func (c *Clusters) Bounds(cl Tile) (x0, y0, x1, y1 int) {
	cx, cy := int(cl)%c.cw, int(cl)/c.cw
	x0, y0 = cx*c.side, cy*c.side
	x1, y1 = min(x0+c.side, c.base.width), min(y0+c.side, c.base.height)
	return x0, y0, x1, y1
}

// Centroid returns a cluster's center in fine fractional coordinates.
func (c *Clusters) Centroid(cl Tile) (x, y float64) { return c.cx[cl], c.cy[cl] }

// Rep returns the fine tile nearest a cluster's centroid: the cluster's
// representative on the fine mesh.
func (c *Clusters) Rep(cl Tile) Tile { return c.rep[cl] }
