package sparse

// Canonical reports whether g's stored edge list is in canonical order,
// so external tests can check that an engine run left the order alone.
func Canonical(g *Graph) bool { return g.canon }
