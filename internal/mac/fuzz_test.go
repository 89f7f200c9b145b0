package mac

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math"
	"slices"
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

// FuzzBestOfTwoPicker holds BestOfTwoPicker to the map-based picker it
// replaced (mapBestOfTwo). Over random queues — duplicates, ids past
// the credit table's current length, group sizes 1–4, thresholds low
// enough to force clients in, and rate functions with ties, negative
// rates and NaN — both pickers must make the same estimator calls,
// return the same groups, leave their RNGs at the same position and
// hold the same credit for every client.
func FuzzBestOfTwoPicker(f *testing.F) {
	f.Add(int64(1), uint8(8), uint8(2), uint8(4), []byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}, []byte{3, 1, 4, 1, 5})
	f.Add(int64(2), uint8(1), uint8(3), uint8(15), []byte{3, 3, 1, 3, 2, 1}, []byte{0})
	f.Add(int64(3), uint8(0), uint8(1), uint8(9), []byte{0xf7, 2, 0xff, 2, 5}, []byte{7, 7, 7, 2})
	f.Add(int64(4), uint8(2), uint8(0), uint8(3), []byte{9}, []byte{})
	f.Fuzz(func(t *testing.T, seed int64, threshold, size, rounds uint8, queue, rates []byte) {
		if len(queue) > 64 {
			queue = queue[:64]
		}
		ids := make([]ClientID, len(queue))
		maxID := ClientID(0)
		for i, b := range queue {
			ids[i] = ClientID(b % 16)
			if b >= 0xf0 {
				ids[i] = ClientID(b) * 200
			}
			maxID = max(maxID, ids[i])
		}
		// Few distinct rates, so ties are common: both pickers must keep
		// the first best group they meet.
		levels := []float64{-2, -1, 0, 0.5, 1, 1, 2, math.NaN()}
		est := func(calls *[][]ClientID) RateEstimator {
			return func(g []ClientID) float64 {
				*calls = append(*calls, slices.Clone(g))
				if len(rates) == 0 {
					return 1
				}
				h := 0
				for _, c := range g {
					h = h*31 + int(c)
				}
				return levels[int(rates[h%len(rates)])%len(levels)]
			}
		}
		k := 1 + int(size%4)
		got := NewBestOfTwoPicker(seed, int(threshold%10))
		want := newMapBestOfTwo(seed, int(threshold%10))
		for r := range 1 + int(rounds%16) {
			q := ids
			if len(ids) > 0 {
				// Rotate the queue each round so heads and candidate
				// pools change while credits carry over.
				off := r % len(ids)
				q = append(slices.Clone(ids[off:]), ids[:off]...)
			}
			var gotCalls, wantCalls [][]ClientID
			g := got.PickGroup(q, k, est(&gotCalls))
			w := want.PickGroup(q, k, est(&wantCalls))
			if !slices.Equal(g, w) {
				t.Fatalf("round %d queue %v size %d: group %v, oracle %v", r, q, k, g, w)
			}
			if !slices.EqualFunc(gotCalls, wantCalls, slices.Equal) {
				t.Fatalf("round %d queue %v size %d: estimator calls %v, oracle %v", r, q, k, gotCalls, wantCalls)
			}
			for _, c := range append(ids, maxID+1) {
				if got.Credits(c) != want.Credits(c) {
					t.Fatalf("round %d: client %d credit %d, oracle %d", r, c, got.Credits(c), want.Credits(c))
				}
			}
		}
		if a, b := got.rng.Int63(), want.rng.Int63(); a != b {
			t.Fatalf("RNG position differs: next draw %d, oracle %d", a, b)
		}
	})
}
