// Package cfg provides control-flow analyses over the IR: reverse postorder,
// dominator trees, natural loop detection and loop nesting depth. These feed
// the frequency estimator (order determination, paper section 2.2), the
// loop-invariant code motion used by the PRE phase, and the rule that sign
// extension insertion applies only to methods containing loops.
//
// Every per-block table is a slice indexed by ir.Block.ID, sized by
// ir.Func.NumBlockIDs at Compute time. The facts are block-level only, so
// adding or removing instructions keeps them valid; adding blocks or edges
// does not. A block created after Compute is outside every table: the query
// methods treat it as unreached and in no loop.
package cfg

import "signext/internal/ir"

// Info bundles the control-flow facts for one function.
type Info struct {
	Fn      *ir.Func
	RPO     []*ir.Block // reverse postorder, entry first
	RPONum  []int       // block ID -> position in RPO; -1 when unreached
	IDom    []*ir.Block // block ID -> immediate dominator (the entry's is itself; nil when unreached)
	Loops   []*Loop     // in order of first back edge in RPO
	LoopOf  []*Loop     // block ID -> innermost loop containing the block
	Reached []bool      // block ID -> reachable from entry
}

// Loop is a natural loop.
type Loop struct {
	Header *ir.Block
	Blocks []bool // block ID -> member of the body (header included)
	Size   int    // number of member blocks
	Parent *Loop
	Depth  int // 1 for outermost loops
	// Latches are the blocks with back edges to Header.
	Latches []*ir.Block
}

// Contains reports whether b belongs to the loop body (header included).
func (l *Loop) Contains(b *ir.Block) bool {
	return b.ID < len(l.Blocks) && l.Blocks[b.ID]
}

// Compute runs all analyses for fn.
func Compute(fn *ir.Func) *Info {
	nb := fn.NumBlockIDs()
	info := &Info{
		Fn:      fn,
		RPONum:  make([]int, nb),
		IDom:    make([]*ir.Block, nb),
		LoopOf:  make([]*Loop, nb),
		Reached: make([]bool, nb),
	}
	info.computeRPO()
	info.computeDominators()
	info.computeLoops()
	return info
}

// computeRPO numbers the blocks reachable from the entry in reverse
// postorder of a depth-first search that visits successors in order.
func (info *Info) computeRPO() {
	for k := range info.RPONum {
		info.RPONum[k] = -1
	}
	type frame struct {
		b    *ir.Block
		next int // index of the next successor to visit
	}
	post := make([]*ir.Block, 0, len(info.Fn.Blocks))
	entry := info.Fn.Entry()
	info.Reached[entry.ID] = true
	stack := []frame{{b: entry}}
	for len(stack) > 0 {
		f := &stack[len(stack)-1]
		if f.next < len(f.b.Succs) {
			s := f.b.Succs[f.next]
			f.next++
			if !info.Reached[s.ID] {
				info.Reached[s.ID] = true
				stack = append(stack, frame{b: s})
			}
			continue
		}
		post = append(post, f.b)
		stack = stack[:len(stack)-1]
	}
	info.RPO = post
	for i, j := 0, len(post)-1; i < j; i, j = i+1, j-1 {
		post[i], post[j] = post[j], post[i]
	}
	for k, b := range info.RPO {
		info.RPONum[b.ID] = k
	}
}

// computeDominators uses the Cooper-Harvey-Kennedy iterative algorithm.
func (info *Info) computeDominators() {
	entry := info.Fn.Entry()
	info.IDom[entry.ID] = entry
	changed := true
	for changed {
		changed = false
		for _, b := range info.RPO[1:] {
			var newIDom *ir.Block
			for _, p := range b.Preds {
				if info.IDom[p.ID] == nil {
					continue // unprocessed or unreachable
				}
				if newIDom == nil {
					newIDom = p
				} else {
					newIDom = info.intersect(p, newIDom)
				}
			}
			if newIDom != nil && info.IDom[b.ID] != newIDom {
				info.IDom[b.ID] = newIDom
				changed = true
			}
		}
	}
}

func (info *Info) intersect(a, b *ir.Block) *ir.Block {
	for a != b {
		for info.RPONum[a.ID] > info.RPONum[b.ID] {
			a = info.IDom[a.ID]
		}
		for info.RPONum[b.ID] > info.RPONum[a.ID] {
			b = info.IDom[b.ID]
		}
	}
	return a
}

// Dominates reports whether a dominates b.
func (info *Info) Dominates(a, b *ir.Block) bool {
	entry := info.Fn.Entry()
	for {
		if b == a {
			return true
		}
		if b == entry || b.ID >= len(info.IDom) {
			return false
		}
		d := info.IDom[b.ID]
		if d == nil || d == b {
			return false
		}
		b = d
	}
}

func (info *Info) computeLoops() {
	// Find back edges: edge b -> h where h dominates b.
	latches := make([][]*ir.Block, len(info.Reached)) // header ID -> latches
	var order []*ir.Block
	for _, b := range info.RPO {
		for _, s := range b.Succs {
			if info.Reached[s.ID] && info.Dominates(s, b) {
				if len(latches[s.ID]) == 0 {
					order = append(order, s)
				}
				latches[s.ID] = append(latches[s.ID], b)
			}
		}
	}
	if len(order) == 0 {
		return
	}
	// Build natural loop bodies, all membership tables carved from one
	// allocation.
	nb := len(info.Reached)
	member := make([]bool, len(order)*nb)
	loops := make([]Loop, len(order))
	var stack []*ir.Block
	for k, h := range order {
		l := &loops[k]
		*l = Loop{Header: h, Blocks: member[k*nb : (k+1)*nb : (k+1)*nb], Size: 1, Latches: latches[h.ID]}
		l.Blocks[h.ID] = true
		for _, latch := range l.Latches {
			if !l.Blocks[latch.ID] {
				l.Blocks[latch.ID] = true
				l.Size++
				stack = append(stack, latch)
			}
		}
		for len(stack) > 0 {
			b := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, p := range b.Preds {
				if info.Reached[p.ID] && !l.Blocks[p.ID] {
					l.Blocks[p.ID] = true
					l.Size++
					stack = append(stack, p)
				}
			}
		}
		info.Loops = append(info.Loops, l)
	}
	// Establish nesting: the innermost loop containing each block is the
	// smallest one (the first in Loops on a tie).
	for _, l := range info.Loops {
		for id, in := range l.Blocks {
			if cur := info.LoopOf[id]; in && (cur == nil || l.Size < cur.Size) {
				info.LoopOf[id] = l
			}
		}
	}
	// Parent: the innermost *other* loop containing this loop's header.
	for _, l := range info.Loops {
		var parent *Loop
		for _, cand := range info.Loops {
			if cand == l || !cand.Blocks[l.Header.ID] {
				continue
			}
			if parent == nil || cand.Size < parent.Size {
				parent = cand
			}
		}
		l.Parent = parent
	}
	for _, l := range info.Loops {
		d := 1
		for p := l.Parent; p != nil; p = p.Parent {
			d++
		}
		l.Depth = d
	}
}

// Depth returns the loop nesting depth of b (0 outside any loop).
func (info *Info) Depth(b *ir.Block) int {
	if b.ID < len(info.LoopOf) {
		if l := info.LoopOf[b.ID]; l != nil {
			return l.Depth
		}
	}
	return 0
}

// HasLoop reports whether the function contains any loop; the paper applies
// sign extension insertion only to such methods (section 2.1).
func (info *Info) HasLoop() bool { return len(info.Loops) > 0 }

// Preheader returns the unique out-of-loop predecessor of l's header if it
// exists and has the header as its only successor; otherwise nil. Used by
// loop-invariant code motion.
func (l *Loop) Preheader() *ir.Block {
	var pre *ir.Block
	for _, p := range l.Header.Preds {
		if l.Contains(p) {
			continue
		}
		if pre != nil {
			return nil // multiple outside predecessors
		}
		pre = p
	}
	if pre != nil && len(pre.Succs) == 1 {
		return pre
	}
	return nil
}

// PostOrder returns blocks in postorder (useful for backward dataflow).
func (info *Info) PostOrder() []*ir.Block {
	out := make([]*ir.Block, len(info.RPO))
	for k := range info.RPO {
		out[k] = info.RPO[len(info.RPO)-1-k]
	}
	return out
}
