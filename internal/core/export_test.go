package core

import "repro/internal/wire"

// StoredValue returns the replica's stored value for an object, read
// under the object's shard lock, so external tests can inspect what a
// server retains.
func (s *Server) StoredValue(id wire.ObjectID) []byte {
	sh, o := s.lockedObj(id)
	defer sh.Unlock()
	return o.value
}
