package wire

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"sort"
)

// Binary codec: the million-agent fan-in wire format.
//
// A connection opens with one version byte (BinaryVersion); every envelope
// after it is a frame:
//
//	uvarint payload length | uint32 LE CRC32-IEEE(payload) | payload
//
// — the same framing shape as the WAL and replication protocols, so
// integrity is checked end to end. The payload is a hand-written,
// reflection-free encoding:
//
//	byte    message type (binType* below)
//	string  campaign               (uvarint length + bytes)
//	...     payload fields, per type
//
// Scalars: ints are zigzag varints, floats are 8-byte little-endian IEEE
// 754 bits, bools one byte, strings and lists uvarint-counted. Maps
// (Bid.PoS, Report.Succeeded) are emitted sorted by key so a given
// envelope always encodes to the same bytes — the differential tests pin
// byte stability, and batched frames dedupe/diff cleanly.
const (
	// BinaryVersion is the protocol version byte a binary client sends at
	// connection open. It deliberately collides with nothing a JSON peer
	// can send first ('{' is 0x7B, whitespace lower still), so one peeked
	// byte negotiates the codec.
	BinaryVersion byte = 0xCB

	// MaxBinaryMessageBytes bounds one binary frame's payload. Larger than
	// the JSON line bound because a single frame may batch tens of
	// thousands of bids.
	MaxBinaryMessageBytes = 16 << 20
)

// Binary message type tags.
const (
	binTypeRegister byte = iota + 1
	binTypeTasks
	binTypeBid
	binTypeAward
	binTypeReport
	binTypeSettle
	binTypeError
	binTypeBidBatch
	binTypeAwardBatch
	binTypeReportBatch
	binTypeSettleBatch
)

var binToType = map[byte]MsgType{
	binTypeRegister:    TypeRegister,
	binTypeTasks:       TypeTasks,
	binTypeBid:         TypeBid,
	binTypeAward:       TypeAward,
	binTypeReport:      TypeReport,
	binTypeSettle:      TypeSettle,
	binTypeError:       TypeError,
	binTypeBidBatch:    TypeBidBatch,
	binTypeAwardBatch:  TypeAwardBatch,
	binTypeReportBatch: TypeReportBatch,
	binTypeSettleBatch: TypeSettleBatch,
}

var typeToBin = map[MsgType]byte{}

func init() {
	for b, t := range binToType {
		typeToBin[t] = b
	}
}

// writeBinary encodes env into the codec's reused scratch buffer and stages
// the frame in the write buffer. No allocation on the steady-state path.
func (c *Codec) writeBinary(env *Envelope) error {
	payload, err := appendEnvelope(c.enc[:0], env)
	if err != nil {
		return err
	}
	c.enc = payload[:0] // keep the grown buffer for reuse
	if len(payload) > MaxBinaryMessageBytes {
		return ErrMessageTooLarge
	}
	var head [binary.MaxVarintLen64 + 4]byte
	n := putFrameLength(head[:], len(payload))
	binary.LittleEndian.PutUint32(head[n:], crc32.ChecksumIEEE(payload))
	if _, err := c.w.Write(head[:n+4]); err != nil {
		return fmt.Errorf("wire: write %s: %w", env.Type, err)
	}
	if _, err := c.w.Write(payload); err != nil {
		return fmt.Errorf("wire: write %s: %w", env.Type, err)
	}
	return nil
}

// readBinary reads one frame from the stream and decodes its envelope. The
// payload is read into the codec's scratch buffer; decoded envelopes own
// their memory.
func (c *Codec) readBinary() (*Envelope, error) {
	size, err := binary.ReadUvarint(c.r)
	if err != nil {
		if err == io.EOF {
			return nil, io.EOF
		}
		return nil, fmt.Errorf("%w: frame length: %v", ErrBadEnvelope, err)
	}
	if size > MaxBinaryMessageBytes {
		return nil, ErrMessageTooLarge
	}
	need := int(size) + 4
	if cap(c.line) < need {
		c.line = make([]byte, need)
	}
	buf := c.line[:need]
	if _, err := io.ReadFull(c.r, buf); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	crc := binary.LittleEndian.Uint32(buf[:4])
	payload := buf[4:]
	if crc32.ChecksumIEEE(payload) != crc {
		return nil, fmt.Errorf("%w: frame crc mismatch", ErrBadEnvelope)
	}
	env, err := decodeEnvelope(payload)
	if err != nil {
		return nil, err
	}
	if err := env.Validate(); err != nil {
		return nil, err
	}
	return env, nil
}

// putFrameLength encodes a frame's payload length into b as a uvarint and
// returns the number of bytes written. Only a length of 123 would begin the
// frame with '{', which a binary reader takes for a JSON line (see
// IsJSONLine); that length is written as the non-minimal two-byte uvarint
// 0xFB 0x00, which every uvarint reader decodes to 123. Every other length is
// the canonical uvarint.
func putFrameLength(b []byte, size int) int {
	if size == '{' {
		b[0], b[1] = '{'|0x80, 0
		return 2
	}
	return binary.PutUvarint(b, uint64(size))
}

// IsJSONLine reports whether a message on a binary session whose first byte
// is first is a JSON line rather than a binary frame: a JSON-only peer's or
// the cluster router's error envelope. Binary writers never begin a frame
// with '{' (see putFrameLength), so the first byte decides.
func IsJSONLine(first byte) bool { return first == '{' }

// ReadRawBinaryFrame reads one complete binary frame (length prefix, CRC,
// payload) and returns its raw bytes, for relays that forward frames
// without re-encoding (the cluster router). The length prefix is kept as
// read, so a relayed frame is byte-identical to the one received. The
// returned slice is freshly allocated.
func ReadRawBinaryFrame(r *bufio.Reader) ([]byte, error) {
	head := prefixReader{r: r}
	size, err := binary.ReadUvarint(&head)
	if err != nil {
		return nil, err
	}
	if size > MaxBinaryMessageBytes {
		return nil, ErrMessageTooLarge
	}
	frame := make([]byte, len(head.read)+int(size)+4)
	n := copy(frame, head.read)
	if _, err := io.ReadFull(r, frame[n:]); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	return frame, nil
}

// prefixReader records the bytes of a frame's length prefix as they are read.
type prefixReader struct {
	r    *bufio.Reader
	read []byte
}

func (p *prefixReader) ReadByte() (byte, error) {
	c, err := p.r.ReadByte()
	if err == nil {
		p.read = append(p.read, c)
	}
	return c, err
}

// DecodeBinaryFrame decodes one complete raw frame (as returned by
// ReadRawBinaryFrame) into its envelope.
func DecodeBinaryFrame(frame []byte) (*Envelope, error) {
	size, n := binary.Uvarint(frame)
	if n <= 0 || len(frame) < n+4+int(size) {
		return nil, fmt.Errorf("%w: truncated frame", ErrBadEnvelope)
	}
	crc := binary.LittleEndian.Uint32(frame[n:])
	payload := frame[n+4 : n+4+int(size)]
	if crc32.ChecksumIEEE(payload) != crc {
		return nil, fmt.Errorf("%w: frame crc mismatch", ErrBadEnvelope)
	}
	env, err := decodeEnvelope(payload)
	if err != nil {
		return nil, err
	}
	if err := env.Validate(); err != nil {
		return nil, err
	}
	return env, nil
}

// --- encoding primitives -------------------------------------------------

func appendUvarint(b []byte, v uint64) []byte {
	return binary.AppendUvarint(b, v)
}

func appendInt(b []byte, v int) []byte {
	return binary.AppendVarint(b, int64(v))
}

func appendFloat(b []byte, f float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(f))
}

func appendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

func appendString(b []byte, s string) []byte {
	b = appendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// reader is a bounds-checked cursor over one frame payload.
type reader struct {
	buf []byte
	off int
	err error
}

func (r *reader) fail() {
	if r.err == nil {
		r.err = fmt.Errorf("%w: truncated binary payload at offset %d", ErrBadEnvelope, r.off)
	}
}

func (r *reader) byte() byte {
	if r.err != nil || r.off >= len(r.buf) {
		r.fail()
		return 0
	}
	b := r.buf[r.off]
	r.off++
	return b
}

func (r *reader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.buf[r.off:])
	if n <= 0 {
		r.fail()
		return 0
	}
	r.off += n
	return v
}

func (r *reader) int() int {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.buf[r.off:])
	if n <= 0 {
		r.fail()
		return 0
	}
	r.off += n
	return int(v)
}

func (r *reader) float() float64 {
	if r.err != nil || r.off+8 > len(r.buf) {
		r.fail()
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(r.buf[r.off:]))
	r.off += 8
	return v
}

func (r *reader) bool() bool { return r.byte() != 0 }

func (r *reader) string() string {
	n := r.uvarint()
	if r.err != nil || r.off+int(n) > len(r.buf) {
		r.fail()
		return ""
	}
	s := string(r.buf[r.off : r.off+int(n)])
	r.off += int(n)
	return s
}

// count reads a collection length and sanity-bounds it against the bytes
// remaining (each element costs at least one byte), so a corrupt length
// cannot drive a huge allocation.
func (r *reader) count() int {
	n := r.uvarint()
	if r.err != nil {
		return 0
	}
	if int(n) > len(r.buf)-r.off {
		r.fail()
		return 0
	}
	return int(n)
}

// --- payload encoders ----------------------------------------------------

func appendEnvelope(b []byte, env *Envelope) ([]byte, error) {
	tag, ok := typeToBin[env.Type]
	if !ok {
		return nil, fmt.Errorf("%w: unknown type %q", ErrBadEnvelope, env.Type)
	}
	b = append(b, tag)
	b = appendString(b, env.Campaign)
	switch env.Type {
	case TypeRegister:
		b = appendInt(b, env.Register.User)
	case TypeTasks:
		b = appendUvarint(b, uint64(len(env.Tasks.Tasks)))
		for _, t := range env.Tasks.Tasks {
			b = appendInt(b, t.ID)
			b = appendFloat(b, t.Requirement)
		}
	case TypeBid:
		b = appendBid(b, env.Bid)
	case TypeAward:
		b = appendAward(b, &env.Award.Selected, env.Award)
	case TypeReport:
		b = appendReport(b, env.Report)
	case TypeSettle:
		b = appendSettle(b, env.Settle)
	case TypeError:
		b = appendString(b, env.Error.Message)
	case TypeBidBatch:
		b = appendUvarint(b, uint64(len(env.BidBatch.Bids)))
		for i := range env.BidBatch.Bids {
			b = appendBid(b, &env.BidBatch.Bids[i])
		}
	case TypeAwardBatch:
		b = appendUvarint(b, uint64(len(env.AwardBatch.Awards)))
		for i := range env.AwardBatch.Awards {
			ua := &env.AwardBatch.Awards[i]
			b = appendInt(b, ua.User)
			b = appendString(b, ua.Error)
			b = appendAward(b, &ua.Selected, &ua.Award)
		}
	case TypeReportBatch:
		b = appendUvarint(b, uint64(len(env.ReportBatch.Reports)))
		for i := range env.ReportBatch.Reports {
			b = appendReport(b, &env.ReportBatch.Reports[i])
		}
	case TypeSettleBatch:
		b = appendUvarint(b, uint64(len(env.SettleBatch.Settles)))
		for i := range env.SettleBatch.Settles {
			us := &env.SettleBatch.Settles[i]
			b = appendInt(b, us.User)
			b = appendSettle(b, &us.Settle)
		}
	}
	if env.Trace != nil {
		// Optional trace context rides after the typed payload. Decoders that
		// predate it would report trailing bytes, but context is only sent to
		// peers that opened this codec version; a frame without context is
		// byte-identical to the pre-context encoding, so tracing never
		// perturbs the differential gates.
		b = appendUvarint(b, env.Trace.TraceID)
		b = appendUvarint(b, env.Trace.SpanID)
		b = appendString(b, env.Trace.Node)
		b = binary.AppendVarint(b, env.Trace.SentUnixNanos)
	}
	return b, nil
}

// appendBid emits a bid with its PoS map sorted by task ID, so identical
// bids always produce identical bytes regardless of map iteration order.
func appendBid(b []byte, bid *Bid) []byte {
	b = appendInt(b, bid.User)
	b = appendUvarint(b, uint64(len(bid.Tasks)))
	for _, id := range bid.Tasks {
		b = appendInt(b, id)
	}
	b = appendFloat(b, bid.Cost)
	b = appendUvarint(b, uint64(len(bid.PoS)))
	for _, id := range sortedKeys(bid.PoS) {
		b = appendInt(b, id)
		b = appendFloat(b, bid.PoS[id])
	}
	return b
}

func appendAward(b []byte, selected *bool, aw *Award) []byte {
	b = appendBool(b, *selected)
	b = appendFloat(b, aw.CriticalPoS)
	b = appendFloat(b, aw.RewardOnSuccess)
	b = appendFloat(b, aw.RewardOnFailure)
	return b
}

// appendReport emits the succeeded map sorted by task ID (see appendBid).
func appendReport(b []byte, rep *Report) []byte {
	b = appendInt(b, rep.User)
	b = appendUvarint(b, uint64(len(rep.Succeeded)))
	for _, id := range sortedKeys(rep.Succeeded) {
		b = appendInt(b, id)
		b = appendBool(b, rep.Succeeded[id])
	}
	return b
}

func appendSettle(b []byte, s *Settle) []byte {
	b = appendBool(b, s.Success)
	b = appendFloat(b, s.Reward)
	b = appendFloat(b, s.Utility)
	return b
}

// sortedKeys returns a map's int keys in ascending order, so map-valued
// fields encode to byte-stable frames.
func sortedKeys[V any](m map[int]V) []int {
	keys := make([]int, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	return keys
}

// --- payload decoders ----------------------------------------------------

func decodeEnvelope(payload []byte) (*Envelope, error) {
	r := &reader{buf: payload}
	tag := r.byte()
	t, ok := binToType[tag]
	if !ok {
		return nil, fmt.Errorf("%w: unknown binary type 0x%02x", ErrBadEnvelope, tag)
	}
	env := &Envelope{Type: t, Campaign: r.string()}
	switch t {
	case TypeRegister:
		env.Register = &Register{User: r.int()}
	case TypeTasks:
		n := r.count()
		tasks := Tasks{Tasks: make([]TaskSpec, 0, n)}
		for i := 0; i < n && r.err == nil; i++ {
			tasks.Tasks = append(tasks.Tasks, TaskSpec{ID: r.int(), Requirement: r.float()})
		}
		env.Tasks = &tasks
	case TypeBid:
		env.Bid = decodeBid(r)
	case TypeAward:
		env.Award = decodeAward(r)
	case TypeReport:
		env.Report = decodeReport(r)
	case TypeSettle:
		env.Settle = decodeSettle(r)
	case TypeError:
		env.Error = &ErrorMsg{Message: r.string()}
	case TypeBidBatch:
		n := r.count()
		batch := BidBatch{Bids: make([]Bid, 0, n)}
		for i := 0; i < n && r.err == nil; i++ {
			batch.Bids = append(batch.Bids, *decodeBid(r))
		}
		env.BidBatch = &batch
	case TypeAwardBatch:
		n := r.count()
		batch := AwardBatch{Awards: make([]UserAward, 0, n)}
		for i := 0; i < n && r.err == nil; i++ {
			ua := UserAward{User: r.int(), Error: r.string()}
			ua.Award = *decodeAward(r)
			batch.Awards = append(batch.Awards, ua)
		}
		env.AwardBatch = &batch
	case TypeReportBatch:
		n := r.count()
		batch := ReportBatch{Reports: make([]Report, 0, n)}
		for i := 0; i < n && r.err == nil; i++ {
			batch.Reports = append(batch.Reports, *decodeReport(r))
		}
		env.ReportBatch = &batch
	case TypeSettleBatch:
		n := r.count()
		batch := SettleBatch{Settles: make([]UserSettle, 0, n)}
		for i := 0; i < n && r.err == nil; i++ {
			us := UserSettle{User: r.int()}
			us.Settle = *decodeSettle(r)
			batch.Settles = append(batch.Settles, us)
		}
		env.SettleBatch = &batch
	}
	if r.err == nil && r.off < len(payload) {
		// Bytes past the typed payload are the optional trace context.
		tc := TraceContext{TraceID: r.uvarint(), SpanID: r.uvarint(), Node: r.string()}
		if r.err == nil {
			v, n := binary.Varint(r.buf[r.off:])
			if n <= 0 {
				r.fail()
			} else {
				r.off += n
				tc.SentUnixNanos = v
			}
		}
		if r.err == nil {
			env.Trace = &tc
		}
	}
	if r.err != nil {
		return nil, r.err
	}
	if r.off != len(payload) {
		return nil, fmt.Errorf("%w: %d trailing bytes in binary payload", ErrBadEnvelope, len(payload)-r.off)
	}
	return env, nil
}

func decodeBid(r *reader) *Bid {
	bid := &Bid{User: r.int()}
	n := r.count()
	if n > 0 {
		bid.Tasks = make([]int, 0, n)
		for i := 0; i < n && r.err == nil; i++ {
			bid.Tasks = append(bid.Tasks, r.int())
		}
	}
	bid.Cost = r.float()
	m := r.count()
	if m > 0 {
		bid.PoS = make(map[int]float64, m)
		for i := 0; i < m && r.err == nil; i++ {
			id := r.int()
			bid.PoS[id] = r.float()
		}
	}
	return bid
}

func decodeAward(r *reader) *Award {
	return &Award{
		Selected:        r.bool(),
		CriticalPoS:     r.float(),
		RewardOnSuccess: r.float(),
		RewardOnFailure: r.float(),
	}
}

func decodeReport(r *reader) *Report {
	rep := &Report{User: r.int()}
	n := r.count()
	if n > 0 {
		rep.Succeeded = make(map[int]bool, n)
		for i := 0; i < n && r.err == nil; i++ {
			id := r.int()
			rep.Succeeded[id] = r.bool()
		}
	}
	return rep
}

func decodeSettle(r *reader) *Settle {
	return &Settle{Success: r.bool(), Reward: r.float(), Utility: r.float()}
}
