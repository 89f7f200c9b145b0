package backend

import (
	"bytes"
	"errors"
	"slices"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestMessageMarshalRoundTrip(t *testing.T) {
	m := Message{Type: MsgDecodedPacket, From: 2, Seq: 77, Payload: []byte("packet body")}
	b := m.Marshal()
	got, n, err := UnmarshalMessage(b)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(b) {
		t.Fatalf("consumed %d of %d", n, len(b))
	}
	if got.Type != m.Type || got.From != m.From || got.Seq != m.Seq || !bytes.Equal(got.Payload, m.Payload) {
		t.Fatalf("round trip mismatch: %+v vs %+v", got, m)
	}
}

func TestMessageMarshalEmptyPayload(t *testing.T) {
	m := Message{Type: MsgLossReport, From: 1, Seq: 3}
	got, _, err := UnmarshalMessage(m.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Payload) != 0 {
		t.Fatalf("payload %v", got.Payload)
	}
}

func TestUnmarshalShort(t *testing.T) {
	if _, _, err := UnmarshalMessage([]byte{1, 2, 3}); !errors.Is(err, ErrShortMessage) {
		t.Fatalf("want ErrShortMessage, got %v", err)
	}
	// Header claims more payload than present.
	m := Message{Type: MsgAckMap, Payload: []byte("abcdef")}
	b := m.Marshal()
	if _, _, err := UnmarshalMessage(b[:len(b)-2]); !errors.Is(err, ErrShortMessage) {
		t.Fatalf("want ErrShortMessage, got %v", err)
	}
}

func TestQuickMessageRoundTrip(t *testing.T) {
	f := func(typ uint8, from uint16, seq uint32, payload []byte) bool {
		m := Message{Type: MsgType(typ), From: int(from), Seq: seq, Payload: payload}
		got, n, err := UnmarshalMessage(m.Marshal())
		if err != nil || n != headerLen+len(payload) {
			return false
		}
		return got.Type == m.Type && got.From == m.From && got.Seq == m.Seq && bytes.Equal(got.Payload, payload)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMemHubBroadcast(t *testing.T) {
	h := NewMemHub(3)
	msg := Message{Type: MsgDecodedPacket, From: 0, Seq: 1, Payload: []byte("p1")}
	if err := h.Publish(0, msg); err != nil {
		t.Fatal(err)
	}
	// Sender does not receive its own broadcast.
	if got := h.Drain(0); len(got) != 0 {
		t.Fatalf("sender received %d messages", len(got))
	}
	for _, port := range []int{1, 2} {
		got := h.Drain(port)
		if len(got) != 1 || got[0].Seq != 1 {
			t.Fatalf("port %d: %v", port, got)
		}
	}
	// Drain clears.
	if got := h.Drain(1); len(got) != 0 {
		t.Fatalf("drain not cleared: %v", got)
	}
}

func TestMemHubOrderingAndBytes(t *testing.T) {
	h := NewMemHub(2)
	for i := 0; i < 5; i++ {
		h.Publish(0, Message{Type: MsgDecodedPacket, Seq: uint32(i), Payload: []byte{byte(i)}})
	}
	got := h.Drain(1)
	if len(got) != 5 {
		t.Fatalf("got %d messages", len(got))
	}
	for i, m := range got {
		if m.Seq != uint32(i) {
			t.Fatalf("out of order: %v", got)
		}
	}
	// Each message counted once: 5 * (13 + 1).
	if h.BytesOnWire() != 5*14 {
		t.Fatalf("bytes %d", h.BytesOnWire())
	}
}

func TestMemHubErrors(t *testing.T) {
	h := NewMemHub(2)
	if err := h.Publish(5, Message{}); err == nil {
		t.Fatal("expected port range error")
	}
	if got := h.Drain(-1); got != nil {
		t.Fatal("bad port drain should be nil")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for 0 ports")
		}
	}()
	NewMemHub(0)
}

func TestTCPHubBroadcast(t *testing.T) {
	h, err := NewTCPHub(3)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	for p := 0; p < 3; p++ {
		if err := h.ConnectPort(p); err != nil {
			t.Fatalf("connect %d: %v", p, err)
		}
	}
	msg := Message{Type: MsgDecodedPacket, From: 1, Seq: 42, Payload: bytes.Repeat([]byte("x"), 1500)}
	if err := h.Publish(1, msg); err != nil {
		t.Fatal(err)
	}
	for _, port := range []int{0, 2} {
		got := h.DrainWait(port, 1, 2*time.Second)
		if len(got) != 1 {
			t.Fatalf("port %d: %d messages", port, len(got))
		}
		if got[0].Seq != 42 || !bytes.Equal(got[0].Payload, msg.Payload) {
			t.Fatalf("port %d: corrupted message", port)
		}
	}
	// Publisher port must not see its own frame.
	if got := h.Drain(1); len(got) != 0 {
		t.Fatalf("publisher got echo: %v", got)
	}
	if h.BytesOnWire() != int64(len(msg.Marshal())) {
		t.Fatalf("bytes %d want %d", h.BytesOnWire(), len(msg.Marshal()))
	}
}

func TestTCPHubMultipleMessagesInterleaved(t *testing.T) {
	h, err := NewTCPHub(2)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	for p := 0; p < 2; p++ {
		if err := h.ConnectPort(p); err != nil {
			t.Fatal(err)
		}
	}
	const n = 20
	for i := 0; i < n; i++ {
		if err := h.Publish(0, Message{Type: MsgChannelUpdate, Seq: uint32(i), Payload: []byte{1, 2, 3}}); err != nil {
			t.Fatal(err)
		}
	}
	got := h.DrainWait(1, n, 2*time.Second)
	if len(got) != n {
		t.Fatalf("got %d of %d", len(got), n)
	}
	for i, m := range got {
		if m.Seq != uint32(i) {
			t.Fatalf("TCP stream reordered: %d at %d", m.Seq, i)
		}
	}
}

func TestTCPHubErrors(t *testing.T) {
	if _, err := NewTCPHub(0); err == nil {
		t.Fatal("expected error for 0 ports")
	}
	h, err := NewTCPHub(1)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	if err := h.Publish(0, Message{}); err == nil {
		t.Fatal("expected not-connected error")
	}
	if err := h.ConnectPort(5); err == nil {
		t.Fatal("expected port range error")
	}
	if err := h.ConnectPort(0); err != nil {
		t.Fatal(err)
	}
	if err := h.ConnectPort(0); err == nil {
		t.Fatal("expected already-connected error")
	}
	// Close twice is fine.
	h.Close()
	h.Close()
}

// TestTCPHubConcurrentConnectSamePort pins the reservation fix: of many
// racing ConnectPort calls for one port, exactly one wins; the rest get
// the already-connected error instead of silently overwriting the
// winner's connection.
func TestTCPHubConcurrentConnectSamePort(t *testing.T) {
	h, err := NewTCPHub(1)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	const racers = 8
	errs := make(chan error, racers)
	var wg sync.WaitGroup
	for i := 0; i < racers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs <- h.ConnectPort(0)
		}()
	}
	wg.Wait()
	close(errs)
	wins := 0
	for err := range errs {
		if err == nil {
			wins++
		}
	}
	if wins != 1 {
		t.Fatalf("%d ConnectPort calls succeeded for one port", wins)
	}
	// The surviving connection works.
	if err := h.Publish(0, Message{Type: MsgAckMap, Payload: []byte{1}}); err != nil {
		t.Fatal(err)
	}
}

// TestTCPHubConcurrentConnectDistinctPorts pins the dial/accept pairing
// serialization: when several ports connect concurrently, each port's
// client connection must pair with its own server-side conn — a swap
// would route a port's frames back into its own inbox and starve the
// real receivers.
func TestTCPHubConcurrentConnectDistinctPorts(t *testing.T) {
	const ports = 4
	h, err := NewTCPHub(ports)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	var wg sync.WaitGroup
	for p := 0; p < ports; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			if err := h.ConnectPort(p); err != nil {
				t.Errorf("connect %d: %v", p, err)
			}
		}(p)
	}
	wg.Wait()
	for sender := 0; sender < ports; sender++ {
		if err := h.Publish(sender, Message{Type: MsgAckMap, Seq: uint32(sender), Payload: []byte{byte(sender)}}); err != nil {
			t.Fatal(err)
		}
		for p := 0; p < ports; p++ {
			if p == sender {
				continue
			}
			got := h.DrainWait(p, 1, 2*time.Second)
			if len(got) != 1 || got[0].Seq != uint32(sender) {
				t.Fatalf("port %d got %v from sender %d (cross-paired conns?)", p, got, sender)
			}
		}
		// A swap would echo the frame back to the sender.
		if echo := h.Drain(sender); len(echo) != 0 {
			t.Fatalf("sender %d received its own frame: conns cross-paired", sender)
		}
	}
}

// TestTCPHubConcurrentPublishersDoNotInterleave hammers one port from
// many goroutines: the per-port write lock must keep every frame intact
// (no interleaved partial writes), so the receiver decodes all of them.
func TestTCPHubConcurrentPublishersDoNotInterleave(t *testing.T) {
	h, err := NewTCPHub(2)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	for p := 0; p < 2; p++ {
		if err := h.ConnectPort(p); err != nil {
			t.Fatal(err)
		}
	}
	const writers, perWriter = 4, 25
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			payload := bytes.Repeat([]byte{byte(w)}, 600)
			for i := 0; i < perWriter; i++ {
				if err := h.Publish(0, Message{Type: MsgDecodedPacket, Seq: uint32(w*perWriter + i), Payload: payload}); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	got := h.DrainWait(1, writers*perWriter, 5*time.Second)
	if len(got) != writers*perWriter {
		t.Fatalf("decoded %d of %d frames (stream corrupted?)", len(got), writers*perWriter)
	}
	for _, m := range got {
		w := int(m.Seq) / perWriter
		for _, b := range m.Payload {
			if b != byte(w) {
				t.Fatalf("frame %d carries foreign bytes: writer %d, byte %d", m.Seq, w, b)
			}
		}
	}
}

func TestVirtualMIMOBackendBits(t *testing.T) {
	// Paper's example: 3 APs x 4 antennas, 8-bit samples at 2x a 20 MHz
	// channel: lands in the multi-Gb/s range the paper quotes (~6 Gb/s).
	bits := VirtualMIMOBackendBits(3, 4, 20e6, 8)
	if bits < 3e9 || bits > 9e9 {
		t.Fatalf("virtual MIMO backend %v b/s, expected a few Gb/s", bits)
	}
}

func TestIACBackendBits(t *testing.T) {
	// IAC's backend load tracks the wireless throughput (tens of Mb/s),
	// orders of magnitude below virtual MIMO's.
	wireless := 100e6
	iac := IACBackendBits(wireless, 1)
	if iac != wireless {
		t.Fatalf("iac backend %v", iac)
	}
	if IACBackendBits(wireless, -1) != 0 {
		t.Fatal("negative fraction should clamp to 0")
	}
	if IACBackendBits(wireless, 2) != wireless {
		t.Fatal("fraction above 1 should clamp")
	}
	red := BackendReduction(3, 4, 20e6, 8, wireless)
	if red < 10 {
		t.Fatalf("reduction factor %v, expected >10x", red)
	}
	if BackendReduction(3, 4, 20e6, 8, 0) != 0 {
		t.Fatal("zero throughput reduction should be 0")
	}
}

// TestMemHubBytesOnWire: the hub counts exactly the bytes Marshal would
// put on the wire, keeps hub semantics across the per-cycle DiscardAll
// that recycles its queues, and never writes into a slice an earlier
// Drain handed out.
func TestMemHubBytesOnWire(t *testing.T) {
	const ports = 3
	h := NewMemHub(ports)
	var want int64
	for i, n := range []int{0, 1, 1440} {
		m := Message{Type: MsgDecodedPacket, Seq: uint32(i), Payload: make([]byte, n)}
		if err := h.Publish(0, m); err != nil {
			t.Fatal(err)
		}
		want += int64(len(m.Marshal()))
	}
	if got := h.BytesOnWire(); got != want {
		t.Fatalf("BytesOnWire = %d, want %d (sum of marshalled lengths)", got, want)
	}

	// Fill the queues past their first capacity, recycle them, and check
	// that every later message reaches each other port exactly once.
	for s := range 10 {
		_ = h.Publish(s%ports, Message{Type: MsgAckMap, Seq: uint32(100 + s)})
	}
	h.DiscardAll()
	for s := range 5 {
		if err := h.Publish(s%ports, Message{Type: MsgLossReport, From: s % ports, Seq: uint32(200 + s)}); err != nil {
			t.Fatal(err)
		}
	}
	drained := make([][]Message, ports)
	for p := range ports {
		drained[p] = h.Drain(p)
		var got []uint32
		for _, m := range drained[p] {
			got = append(got, m.Seq)
		}
		var exp []uint32
		for s := range 5 {
			if s%ports != p {
				exp = append(exp, uint32(200+s))
			}
		}
		if !slices.Equal(got, exp) {
			t.Fatalf("port %d after DiscardAll got seqs %v, want %v", p, got, exp)
		}
	}

	// Later traffic, with recycles in between, must not reach the
	// drained slices through any reused backing array.
	snapshot := make([][]Message, ports)
	for p := range ports {
		snapshot[p] = slices.Clone(drained[p])
	}
	for round := range 3 {
		for s := range 8 {
			_ = h.Publish(s%ports, Message{Type: MsgDecodedPacket, Seq: uint32(300 + 10*round + s), Payload: []byte{byte(s)}})
		}
		h.DiscardAll()
	}
	for p := range ports {
		if !slices.EqualFunc(drained[p], snapshot[p], func(a, b Message) bool {
			return a.Type == b.Type && a.From == b.From && a.Seq == b.Seq && bytes.Equal(a.Payload, b.Payload)
		}) {
			t.Fatalf("port %d: a later Publish rewrote a drained slice: %v, was %v", p, drained[p], snapshot[p])
		}
	}
}

// TestMemHubSteadyStatePublishAllocs pins the cycle layer's hub floor:
// once the queues have grown, a cycle's publishes and its DiscardAll
// allocate nothing.
func TestMemHubSteadyStatePublishAllocs(t *testing.T) {
	h := NewMemHub(3)
	share := Message{Type: MsgDecodedPacket, Payload: make([]byte, 1440)}
	cycle := func() {
		for s := range 16 {
			share.Seq = uint32(s)
			_ = h.Publish(0, share)
		}
		h.DiscardAll()
	}
	cycle()
	if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
		t.Fatalf("steady-state hub cycle allocates %.1f times", allocs)
	}
}
