package mac

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"testing"

	"iaclan/internal/cmplxmat"
)

// seal appends the frame checksum to body, so seeds can reach the
// parser branches behind the CRC check.
func seal(body ...byte) []byte {
	return binary.BigEndian.AppendUint32(body, crc32.ChecksumIEEE(body))
}

// FuzzUnmarshalBeacon: the beacon parser never panics, and every input
// it accepts re-marshals to exactly the same bytes.
func FuzzUnmarshalBeacon(f *testing.F) {
	valid, err := Beacon{CFPDurationSlots: 17, AckMap: []byte{0xb1, 0x01}}.Marshal()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(seal(byte(FrameBeacon), 0, 5, 0, 0))          // empty ack map
	f.Add(valid[:8])                                    // truncated
	f.Add(append(valid[:len(valid)-1:len(valid)-1], 0)) // bad CRC
	f.Add(seal(byte(FrameGrant), 0, 5, 0, 0))           // wrong type
	f.Add(seal(byte(FrameBeacon), 0, 5, 0, 3, 0xff))    // length mismatch
	f.Fuzz(func(t *testing.T, raw []byte) {
		b, err := UnmarshalBeacon(raw)
		if err != nil {
			return
		}
		again, err := b.Marshal()
		if err != nil {
			t.Fatalf("parsed beacon %+v does not marshal: %v", b, err)
		}
		if !bytes.Equal(again, raw) {
			t.Fatalf("round trip changed the frame:\n% x\n% x", raw, again)
		}
	})
}

// FuzzUnmarshalPollFrame: the poll-frame parser never panics, and every
// input it accepts re-marshals to exactly the same bytes — so Marshal
// can produce every frame the parser admits, and nothing else.
func FuzzUnmarshalPollFrame(f *testing.F) {
	valid, err := PollFrame{Type: FrameGrant, Fid: 9, NumAPs: 3, Entries: []VectorEntry{
		{Client: 7, Encoding: cmplxmat.Vector{1 + 2i, 3}, Decoding: cmplxmat.Vector{0, 1i}},
	}}.Marshal()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(seal(byte(FrameDataPoll), 0, 0, 0, 1, 2, 0, 0, 0))    // no entries
	f.Add(valid[:12])                                           // truncated
	f.Add(append(valid[:len(valid)-1:len(valid)-1], 0))         // bad CRC
	f.Add(seal(byte(FrameBeacon), 0, 0, 0, 1, 2, 0, 0, 0))      // wrong type
	f.Add(seal(byte(FrameGrant), 0, 0, 0, 1, 0, 0, 0, 0))       // zero APs
	f.Add(seal(byte(FrameGrant), 0, 0, 0, 1, 2, 1, 0, 1, 0, 7)) // length mismatch
	f.Add(seal(byte(FrameGrant), 0, 0, 0, 1, 2, 4, 0, 0))       // dimension without entries
	f.Fuzz(func(t *testing.T, raw []byte) {
		p, err := UnmarshalPollFrame(raw)
		if err != nil {
			return
		}
		again, err := p.Marshal()
		if err != nil {
			t.Fatalf("parsed frame does not marshal: %v", err)
		}
		if !bytes.Equal(again, raw) {
			t.Fatalf("round trip changed the frame:\n% x\n% x", raw, again)
		}
	})
}
