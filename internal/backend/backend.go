// Package backend implements the wired coordination plane IAC delegates
// to the APs: a broadcast hub carrying decoded packets, channel-estimate
// annotations, and loss reports between the APs and the leader
// (paper Sections 7.1c-d).
//
// Two hubs are provided behind one interface: an in-memory hub for
// deterministic simulation, and a real TCP loopback hub (length-prefixed
// frames over net.Conn) demonstrating that the coordination traffic runs
// over an ordinary LAN stack. Both count bytes, because IAC's key
// backend property is that "the Ethernet traffic remains comparable to
// the wireless throughput" — unlike virtual MIMO, which must ship raw
// signal samples (Section 2a).
package backend

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
)

// MsgType distinguishes the coordination messages of Section 7.1.
type MsgType uint8

const (
	// MsgDecodedPacket carries a decoded packet from one AP to the rest
	// for interference cancellation.
	MsgDecodedPacket MsgType = iota + 1
	// MsgChannelUpdate tells the leader a channel estimate changed by
	// more than the threshold.
	MsgChannelUpdate
	// MsgLossReport tells the leader a packet was lost and needs a
	// retransmission slot.
	MsgLossReport
	// MsgAckMap is the leader's combined ack bitmap for the next beacon.
	MsgAckMap
)

// Message is one coordination frame on the AP backend.
type Message struct {
	Type MsgType
	// From is the sending AP's identifier.
	From int
	// Seq identifies the wireless packet the message concerns.
	Seq uint32
	// Payload is the decoded packet body or annotation bytes.
	Payload []byte
}

// wire format: type(1) from(4) seq(4) payloadLen(4) payload.
const headerLen = 13

// WireLen returns the length of the message's hub wire encoding, the
// length of what Marshal returns.
func (m Message) WireLen() int { return headerLen + len(m.Payload) }

// Marshal encodes the message in the hub wire format.
func (m Message) Marshal() []byte {
	buf := make([]byte, m.WireLen())
	buf[0] = byte(m.Type)
	binary.BigEndian.PutUint32(buf[1:5], uint32(m.From))
	binary.BigEndian.PutUint32(buf[5:9], m.Seq)
	binary.BigEndian.PutUint32(buf[9:13], uint32(len(m.Payload)))
	copy(buf[headerLen:], m.Payload)
	return buf
}

// ErrShortMessage is returned when unmarshalling truncated bytes.
var ErrShortMessage = errors.New("backend: short message")

// UnmarshalMessage decodes one message and returns it along with the
// number of bytes consumed.
func UnmarshalMessage(b []byte) (Message, int, error) {
	if len(b) < headerLen {
		return Message{}, 0, ErrShortMessage
	}
	plen := int(binary.BigEndian.Uint32(b[9:13]))
	if len(b) < headerLen+plen {
		return Message{}, 0, ErrShortMessage
	}
	m := Message{
		Type: MsgType(b[0]),
		From: int(binary.BigEndian.Uint32(b[1:5])),
		Seq:  binary.BigEndian.Uint32(b[5:9]),
	}
	if plen > 0 {
		m.Payload = append([]byte(nil), b[headerLen:headerLen+plen]...)
	}
	return m, headerLen + plen, nil
}

// Hub is the AP coordination plane: every published message is delivered
// to every other port exactly once (hub semantics: one broadcast per
// packet, Section 7.1d).
type Hub interface {
	// Publish broadcasts a message from the given port.
	Publish(port int, msg Message) error
	// Drain returns and clears the messages queued for the given port,
	// in publication order.
	Drain(port int) []Message
	// BytesOnWire returns the cumulative bytes broadcast (each message
	// counted once, per hub semantics).
	BytesOnWire() int64
}

// MemHub is a deterministic in-memory Hub. It counts each message's
// wire length (WireLen) without encoding it.
type MemHub struct {
	mu     sync.Mutex
	queues [][]Message
	bytes  int64
}

// NewMemHub creates a hub with the given number of ports (APs).
func NewMemHub(ports int) *MemHub {
	if ports <= 0 {
		panic("backend: hub needs at least one port")
	}
	return &MemHub{queues: make([][]Message, ports)}
}

// Publish implements Hub.
func (h *MemHub) Publish(port int, msg Message) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	if port < 0 || port >= len(h.queues) {
		return fmt.Errorf("backend: port %d out of range", port)
	}
	h.bytes += int64(msg.WireLen())
	for p := range h.queues {
		if p == port {
			continue
		}
		h.queues[p] = append(h.queues[p], msg)
	}
	return nil
}

// Drain implements Hub.
func (h *MemHub) Drain(port int) []Message {
	h.mu.Lock()
	defer h.mu.Unlock()
	if port < 0 || port >= len(h.queues) {
		return nil
	}
	out := h.queues[port]
	h.queues[port] = nil
	return out
}

// DiscardAll clears every port's queue without returning the messages.
// Long-running simulations that use the hub for wired-plane byte
// accounting only (nobody consumes the broadcasts) call it once per CFP
// cycle so queues stay bounded. Each queue keeps its capacity, so a
// steady-state cycle publishes without allocating; a slice an earlier
// Drain returned owns its backing array and is never reused.
func (h *MemHub) DiscardAll() {
	h.mu.Lock()
	defer h.mu.Unlock()
	for p, q := range h.queues {
		clear(q)
		h.queues[p] = q[:0]
	}
}

// BytesOnWire implements Hub.
func (h *MemHub) BytesOnWire() int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.bytes
}
