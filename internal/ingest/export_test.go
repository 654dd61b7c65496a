package ingest

// NodeIndex resolves an external ID, reporting whether it is mapped.
func (s *Stream) NodeIndex(id string) (int, bool) {
	idx, ok := s.nodes[id]
	return idx, ok
}
