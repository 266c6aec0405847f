package uml

import "strconv"

// ConnectDangling adds an edge from fromID to toID without checking that
// the diagram contains toID. Connect refuses such edges, so this is the
// only way a test can build the dangling-edge flow defects that decoded
// or hand-assembled models may still carry.
func ConnectDangling(d *Diagram, fromID, toID string) *Edge {
	e := &Edge{from: fromID, to: toID, diagram: d}
	e.base = newBase(d.ID()+".e"+strconv.Itoa(len(d.edges)+1), "", KindEdge)
	e.setOwner(d)
	d.edges = append(d.edges, e)
	if d.outgoing == nil {
		d.outgoing = make(map[string][]*Edge)
		d.incoming = make(map[string][]*Edge)
	}
	d.outgoing[fromID] = append(d.outgoing[fromID], e)
	d.incoming[toID] = append(d.incoming[toID], e)
	return e
}
