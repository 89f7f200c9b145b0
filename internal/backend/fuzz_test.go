package backend

import (
	"bytes"
	"testing"
)

// FuzzUnmarshalMessage: the hub frame parser never panics, never claims
// more bytes than it was given, and the message it returns marshals
// back to exactly the prefix it consumed.
func FuzzUnmarshalMessage(f *testing.F) {
	valid := Message{Type: MsgDecodedPacket, From: 2, Seq: 77, Payload: []byte("packet body")}.Marshal()
	f.Add(valid)
	f.Add(Message{Type: MsgLossReport, From: 1, Seq: 3}.Marshal())   // empty payload
	f.Add(append(valid[:len(valid):len(valid)], valid...))           // two frames back to back
	f.Add(valid[:headerLen-1])                                       // truncated header
	f.Add(valid[:len(valid)-2])                                      // payload shorter than its length field
	f.Add([]byte{1, 0, 0, 0, 0, 0, 0, 0, 0, 0xff, 0xff, 0xff, 0xff}) // length field near 2^32
	f.Fuzz(func(t *testing.T, b []byte) {
		m, n, err := UnmarshalMessage(b)
		if err != nil {
			return
		}
		if n > len(b) {
			t.Fatalf("consumed %d of %d bytes", n, len(b))
		}
		if again := m.Marshal(); !bytes.Equal(again, b[:n]) {
			t.Fatalf("re-marshal differs from the consumed prefix:\n% x\n% x", b[:n], again)
		}
	})
}
