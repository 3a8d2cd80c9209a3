package flit

import "repro/internal/snapshot"

// Walk walks the message's fields through a snapshot codec. The wormhole
// slot arena and the protocol's per-destination queues both embed it.
func (m *Message) Walk(c *snapshot.Codec) {
	snapshot.I64(c, &m.ID)
	snapshot.I64(c, &m.Src)
	snapshot.I64(c, &m.Dst)
	snapshot.I64(c, &m.Len)
	snapshot.I64(c, &m.InjectTime)
}

// Walk walks the flit's fields through a snapshot codec.
func (f *Flit) Walk(c *snapshot.Codec) {
	snapshot.U8(c, &f.Kind)
	snapshot.I64(c, &f.Msg)
	snapshot.I64(c, &f.Src)
	snapshot.I64(c, &f.Dst)
	snapshot.I64(c, &f.Seq)
}
