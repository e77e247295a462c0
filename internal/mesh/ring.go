package mesh

// RingCursor enumerates the tiles of a mesh in order of distance from a
// center (ties by ascending tile index), one tile per Next call, without
// materializing the ordering. It walks the topology's shared offset table and
// skips the offsets that fall off the mesh. Cursors are values: creating one
// allocates nothing, so an early-terminating spiral costs O(tiles visited),
// not O(tiles) per walk.
type RingCursor struct {
	t      *Topology
	cx, cy int
	i      int // index of the next offset to try
}

// RingFrom returns a cursor over the tiles in distance order from center,
// starting at the center itself.
func (t *Topology) RingFrom(center Tile) RingCursor {
	cx, cy := t.Coords(center)
	return RingCursor{t: t, cx: cx, cy: cy}
}

// Offsets returns the shared distance-order table: every displacement
// (DX, DY) a center can reach, sorted by (|DX|+|DY|, DY, DX). From a center
// (cx, cy), the entries whose (cx+DX, cy+DY) lies on the mesh are exactly
// the RingFrom ordering. Hot loops that cannot afford a cursor's per-tile state
// range over it directly; the slice is shared and must not be modified.
func (t *Topology) Offsets() []Offset { return t.order }

// Next returns the next tile in the ordering, or ok=false once all Tiles()
// tiles have been produced.
func (c *RingCursor) Next() (Tile, bool) {
	order, w, h := c.t.order, c.t.width, c.t.height
	for c.i < len(order) {
		o := order[c.i]
		c.i++
		x, y := c.cx+int(o.DX), c.cy+int(o.DY)
		if uint(x) < uint(w) && uint(y) < uint(h) {
			return Tile(y*w + x), true
		}
	}
	return 0, false
}

// Dist returns the distance from the cursor's center to the tile most
// recently returned by Next. It is only meaningful after a successful Next.
func (c *RingCursor) Dist() int {
	o := c.t.order[c.i-1]
	return abs(int(o.DX)) + abs(int(o.DY))
}

// Coords returns the coordinates of the tile most recently returned by
// Next (the same as Topology.Coords, without its division). It is only
// meaningful after a successful Next.
func (c *RingCursor) Coords() (x, y int) {
	o := c.t.order[c.i-1]
	return c.cx + int(o.DX), c.cy + int(o.DY)
}
