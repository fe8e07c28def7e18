package core

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"fmt"
	"slices"

	"github.com/authhints/spv/internal/graph"
	"github.com/authhints/spv/internal/mbt"
	"github.com/authhints/spv/internal/mht"
)

// This file is the shared wire form for /batch responses ("spv/batch/v1"):
// one blob carrying many proofs of one method, with the bytes proofs from a
// single epoch share — tuple record bodies and root signatures — stored
// once in tables that per-item bodies reference, and items whose whole body
// repeats an earlier one reduced to a backref. Old clients are unaffected:
// servers only emit this form when a request opts in; the per-proof wire
// encodings are untouched.
//
// The encoding is canonical: tables hold distinct entries in first-use
// order, duplicate bodies must be backrefs, and the decoder rejects any
// blob the encoder could not have produced. Decode → re-encode is therefore
// byte-identity, which the fuzz target pins.

const (
	proofBatchMagic = "SPB1"

	// Body form 0 is reserved and rejected; every body is the method's
	// shared form, which references the batch tables.
	batchBodyShared = 1

	batchItemBody    = 0
	batchItemBackref = 1

	maxBatchItems = 1 << 20
	maxBatchSigs  = 1 << 20
)

// batchTables is the shared-table context of one batch encode or decode:
// distinct signatures and tuple records in first-use order. The decoder
// additionally tracks the first-use discipline (every reference to a
// not-yet-used entry must hit the next unused index, and every entry must
// be used) — that is what makes re-encoding canonical.
type batchTables struct {
	sigs   [][]byte
	recs   []tupleRecord
	sigIdx map[string]uint32 // encode: signature bytes → index
	recIdx map[string]uint32 // encode: pos‖bytes → index
	sigUse uint32            // decode: number of table entries used so far
	recUse uint32
}

func newEncodeTables() *batchTables {
	return &batchTables{sigIdx: make(map[string]uint32), recIdx: make(map[string]uint32)}
}

func recKey(r tupleRecord) string {
	var p [4]byte
	binary.BigEndian.PutUint32(p[:], r.Pos)
	return string(p[:]) + string(r.Bytes)
}

// hasDuplicateRecord reports whether two records share position and
// bytes: one sort of record indices by (position, bytes), no per-record
// key strings.
func hasDuplicateRecord(recs []tupleRecord) bool {
	order := make([]int32, len(recs))
	for i := range order {
		order[i] = int32(i)
	}
	compare := func(a, b int32) int {
		if c := cmp.Compare(recs[a].Pos, recs[b].Pos); c != 0 {
			return c
		}
		return bytes.Compare(recs[a].Bytes, recs[b].Bytes)
	}
	slices.SortFunc(order, compare)
	for i := 1; i < len(order); i++ {
		if compare(order[i-1], order[i]) == 0 {
			return true
		}
	}
	return false
}

func (t *batchTables) sigRef(sig []byte) uint32 {
	if i, ok := t.sigIdx[string(sig)]; ok {
		return i
	}
	i := uint32(len(t.sigs))
	t.sigs = append(t.sigs, sig)
	t.sigIdx[string(sig)] = i
	return i
}

func (t *batchTables) recRef(r tupleRecord) uint32 {
	k := recKey(r)
	if i, ok := t.recIdx[k]; ok {
		return i
	}
	i := uint32(len(t.recs))
	t.recs = append(t.recs, r)
	t.recIdx[k] = i
	return i
}

func (t *batchTables) sigAt(i uint32) ([]byte, error) {
	if int64(i) >= int64(len(t.sigs)) {
		return nil, fmt.Errorf("%w: signature ref %d out of range", ErrMalformedProof, i)
	}
	if i > t.sigUse {
		return nil, fmt.Errorf("%w: signature table not in first-use order", ErrMalformedProof)
	}
	if i == t.sigUse {
		t.sigUse++
	}
	return t.sigs[i], nil
}

func (t *batchTables) recAt(i uint32) (tupleRecord, error) {
	if int64(i) >= int64(len(t.recs)) {
		return tupleRecord{}, fmt.Errorf("%w: tuple ref %d out of range", ErrMalformedProof, i)
	}
	if i > t.recUse {
		return tupleRecord{}, fmt.Errorf("%w: tuple table not in first-use order", ErrMalformedProof)
	}
	if i == t.recUse {
		t.recUse++
	}
	return t.recs[i], nil
}

func appendRefBlock(t *batchTables, buf []byte, recs []tupleRecord) []byte {
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(recs)))
	for _, r := range recs {
		buf = binary.BigEndian.AppendUint32(buf, t.recRef(r))
	}
	return buf
}

func decodeRefBlock(t *batchTables, buf []byte) ([]tupleRecord, int, error) {
	if len(buf) < 4 {
		return nil, 0, fmt.Errorf("%w: tuple ref block truncated", ErrMalformedProof)
	}
	count := int(binary.BigEndian.Uint32(buf))
	if count > len(buf[4:])/4 {
		return nil, 0, fmt.Errorf("%w: tuple ref block truncated", ErrMalformedProof)
	}
	recs := make([]tupleRecord, 0, count)
	off := 4
	for i := 0; i < count; i++ {
		r, err := t.recAt(binary.BigEndian.Uint32(buf[off:]))
		if err != nil {
			return nil, 0, err
		}
		recs = append(recs, r)
		off += 4
	}
	return recs, off, nil
}

func decodeSigRef(t *batchTables, buf []byte) ([]byte, int, error) {
	if len(buf) < 4 {
		return nil, 0, fmt.Errorf("%w: signature ref truncated", ErrMalformedProof)
	}
	sig, err := t.sigAt(binary.BigEndian.Uint32(buf))
	if err != nil {
		return nil, 0, err
	}
	return sig, 4, nil
}

// --- per-method shared bodies (same field order as the standalone wires,
// with tuple blocks and signatures as references) ---

func (dijImpl) appendBatchBody(t *batchTables, buf []byte, pr Proof) ([]byte, error) {
	p, err := proofAs[*DIJProof](DIJ, pr)
	if err != nil || p.MHT == nil {
		return nil, fmt.Errorf("%w: not a batch-encodable DIJ proof", ErrMalformedProof)
	}
	buf = appendPath(buf, p.Path)
	buf = appendFloat(buf, p.Dist)
	buf = appendRefBlock(t, buf, p.Tuples)
	buf = p.MHT.AppendBinary(buf)
	return binary.BigEndian.AppendUint32(buf, t.sigRef(p.RootSig)), nil
}

func (dijImpl) decodeBatchBody(t *batchTables, buf []byte) (Proof, int, error) {
	pr := &DIJProof{}
	path, off, err := decodePath(buf)
	if err != nil {
		return nil, 0, err
	}
	pr.Path = path
	var n int
	pr.Dist, n, err = decodeFloat(buf[off:])
	if err != nil {
		return nil, 0, err
	}
	off += n
	pr.Tuples, n, err = decodeRefBlock(t, buf[off:])
	if err != nil {
		return nil, 0, err
	}
	off += n
	mp, n, err := mht.DecodeProof(buf[off:])
	if err != nil {
		return nil, 0, fmt.Errorf("%w: %v", ErrMalformedProof, err)
	}
	pr.MHT = mp
	off += n
	pr.RootSig, n, err = decodeSigRef(t, buf[off:])
	if err != nil {
		return nil, 0, err
	}
	return pr, off + n, nil
}

func (ldmImpl) appendBatchBody(t *batchTables, buf []byte, pr Proof) ([]byte, error) {
	p, err := proofAs[*LDMProof](LDM, pr)
	if err != nil || p.MHT == nil {
		return nil, fmt.Errorf("%w: not a batch-encodable LDM proof", ErrMalformedProof)
	}
	buf = appendPath(buf, p.Path)
	buf = appendFloat(buf, p.Dist)
	buf = binary.BigEndian.AppendUint32(buf, uint32(p.Params.C))
	buf = binary.BigEndian.AppendUint32(buf, uint32(p.Params.Bits))
	buf = appendFloat(buf, p.Params.Lambda)
	buf = appendRefBlock(t, buf, p.Tuples)
	buf = p.MHT.AppendBinary(buf)
	return binary.BigEndian.AppendUint32(buf, t.sigRef(p.RootSig)), nil
}

func (ldmImpl) decodeBatchBody(t *batchTables, buf []byte) (Proof, int, error) {
	pr := &LDMProof{}
	path, off, err := decodePath(buf)
	if err != nil {
		return nil, 0, err
	}
	pr.Path = path
	var n int
	pr.Dist, n, err = decodeFloat(buf[off:])
	if err != nil {
		return nil, 0, err
	}
	off += n
	if len(buf[off:]) < 16 {
		return nil, 0, fmt.Errorf("%w: LDM params truncated", ErrMalformedProof)
	}
	pr.Params.C = int(binary.BigEndian.Uint32(buf[off:]))
	pr.Params.Bits = int(binary.BigEndian.Uint32(buf[off+4:]))
	off += 8
	pr.Params.Lambda, n, err = decodeFloat(buf[off:])
	if err != nil {
		return nil, 0, err
	}
	off += n
	pr.Tuples, n, err = decodeRefBlock(t, buf[off:])
	if err != nil {
		return nil, 0, err
	}
	off += n
	mp, n, err := mht.DecodeProof(buf[off:])
	if err != nil {
		return nil, 0, fmt.Errorf("%w: %v", ErrMalformedProof, err)
	}
	pr.MHT = mp
	off += n
	pr.RootSig, n, err = decodeSigRef(t, buf[off:])
	if err != nil {
		return nil, 0, err
	}
	return pr, off + n, nil
}

func (fullImpl) appendBatchBody(t *batchTables, buf []byte, pr Proof) ([]byte, error) {
	p, err := proofAs[*FULLProof](FULL, pr)
	if err != nil || p.DistVO == nil || p.MHT == nil {
		return nil, fmt.Errorf("%w: not a batch-encodable FULL proof", ErrMalformedProof)
	}
	buf = appendPath(buf, p.Path)
	buf = appendFloat(buf, p.Dist)
	buf = p.DistVO.AppendBinary(buf)
	buf = appendRefBlock(t, buf, p.Tuples)
	buf = p.MHT.AppendBinary(buf)
	buf = binary.BigEndian.AppendUint32(buf, t.sigRef(p.NetSig))
	return binary.BigEndian.AppendUint32(buf, t.sigRef(p.DistSig)), nil
}

func (fullImpl) decodeBatchBody(t *batchTables, buf []byte) (Proof, int, error) {
	pr := &FULLProof{}
	path, off, err := decodePath(buf)
	if err != nil {
		return nil, 0, err
	}
	pr.Path = path
	var n int
	pr.Dist, n, err = decodeFloat(buf[off:])
	if err != nil {
		return nil, 0, err
	}
	off += n
	vo, n, err := mbt.DecodeForestProof(buf[off:])
	if err != nil {
		return nil, 0, fmt.Errorf("%w: %v", ErrMalformedProof, err)
	}
	pr.DistVO = vo
	off += n
	pr.Tuples, n, err = decodeRefBlock(t, buf[off:])
	if err != nil {
		return nil, 0, err
	}
	off += n
	mp, n, err := mht.DecodeProof(buf[off:])
	if err != nil {
		return nil, 0, fmt.Errorf("%w: %v", ErrMalformedProof, err)
	}
	pr.MHT = mp
	off += n
	pr.NetSig, n, err = decodeSigRef(t, buf[off:])
	if err != nil {
		return nil, 0, err
	}
	off += n
	pr.DistSig, n, err = decodeSigRef(t, buf[off:])
	if err != nil {
		return nil, 0, err
	}
	return pr, off + n, nil
}

func (hypImpl) appendBatchBody(t *batchTables, buf []byte, pr Proof) ([]byte, error) {
	p, err := proofAs[*HYPProof](HYP, pr)
	if err != nil || p.MHT == nil {
		return nil, fmt.Errorf("%w: not a batch-encodable HYP proof", ErrMalformedProof)
	}
	buf = appendPath(buf, p.Path)
	buf = appendFloat(buf, p.Dist)
	buf = appendRefBlock(t, buf, p.Tuples)
	buf = p.MHT.AppendBinary(buf)
	if p.Hyper != nil {
		buf = append(buf, 1)
		buf = p.Hyper.AppendBinary(buf)
	} else {
		buf = append(buf, 0)
	}
	buf = binary.BigEndian.AppendUint32(buf, t.sigRef(p.NetSig))
	return binary.BigEndian.AppendUint32(buf, t.sigRef(p.DistSig)), nil
}

func (hypImpl) decodeBatchBody(t *batchTables, buf []byte) (Proof, int, error) {
	pr := &HYPProof{}
	path, off, err := decodePath(buf)
	if err != nil {
		return nil, 0, err
	}
	pr.Path = path
	var n int
	pr.Dist, n, err = decodeFloat(buf[off:])
	if err != nil {
		return nil, 0, err
	}
	off += n
	pr.Tuples, n, err = decodeRefBlock(t, buf[off:])
	if err != nil {
		return nil, 0, err
	}
	off += n
	mp, n, err := mht.DecodeProof(buf[off:])
	if err != nil {
		return nil, 0, fmt.Errorf("%w: %v", ErrMalformedProof, err)
	}
	pr.MHT = mp
	off += n
	if len(buf[off:]) < 1 {
		return nil, 0, fmt.Errorf("%w: hyper flag truncated", ErrMalformedProof)
	}
	hasHyper := buf[off]
	off++
	if hasHyper == 1 {
		hp, n, err := mbt.DecodeProof(buf[off:])
		if err != nil {
			return nil, 0, fmt.Errorf("%w: %v", ErrMalformedProof, err)
		}
		pr.Hyper = hp
		off += n
	} else if hasHyper != 0 {
		return nil, 0, fmt.Errorf("%w: bad hyper flag %d", ErrMalformedProof, hasHyper)
	}
	pr.NetSig, n, err = decodeSigRef(t, buf[off:])
	if err != nil {
		return nil, 0, err
	}
	off += n
	pr.DistSig, n, err = decodeSigRef(t, buf[off:])
	if err != nil {
		return nil, 0, err
	}
	return pr, off + n, nil
}

// --- container ---

// ProofBatch is a decoded batch blob: the method plus one query-proof pair
// per item. Items that shared one body on the wire share one Proof value,
// which VerifyBatch dedups for free.
type ProofBatch struct {
	Method Method
	items  []BatchItem
}

// Items returns the query-proof pairs, ready for VerifyBatch. The slice
// (and the proofs' backing tables) belong to the batch — callers must not
// mutate them.
func (pb *ProofBatch) Items() []BatchItem { return pb.items }

// Len reports the number of items.
func (pb *ProofBatch) Len() int { return len(pb.items) }

// AppendBinary re-encodes the batch; for a decoded batch the output is
// byte-identical to its input (the encoding is canonical).
func (pb *ProofBatch) AppendBinary(buf []byte) ([]byte, error) {
	return AppendProofBatch(buf, pb.Method, pb.items)
}

// AppendProofBatch encodes proofs of one method into the shared batch wire
// form:
//
//	"SPB1" | method | sig table | tuple table | items
//
// where each item is (vs u32, vt u32, tag u8, body-or-backref). Tables are
// built in first-use order; repeated bodies become backrefs.
func AppendProofBatch(buf []byte, m Method, items []BatchItem) ([]byte, error) {
	impl, ok := LookupMethod(m)
	if !ok {
		return nil, fmt.Errorf("%w %q", ErrUnknownMethod, m)
	}
	if len(items) > maxBatchItems {
		return nil, fmt.Errorf("%w: %d items exceeds batch limit", ErrMalformedProof, len(items))
	}
	t := newEncodeTables()
	bodyIdx := make(map[string]uint32, len(items))
	itemsBuf := binary.BigEndian.AppendUint32(nil, uint32(len(items)))
	for i, it := range items {
		if it.Proof == nil {
			return nil, fmt.Errorf("%w: nil proof in batch item %d", ErrMalformedProof, i)
		}
		itemsBuf = binary.BigEndian.AppendUint32(itemsBuf, uint32(it.VS))
		itemsBuf = binary.BigEndian.AppendUint32(itemsBuf, uint32(it.VT))
		body, err := impl.appendBatchBody(t, []byte{batchBodyShared}, it.Proof)
		if err != nil {
			return nil, err
		}
		if j, dup := bodyIdx[string(body)]; dup {
			itemsBuf = append(itemsBuf, batchItemBackref)
			itemsBuf = binary.BigEndian.AppendUint32(itemsBuf, j)
			continue
		}
		bodyIdx[string(body)] = uint32(i)
		itemsBuf = append(itemsBuf, batchItemBody)
		itemsBuf = appendBytes(itemsBuf, body)
	}
	buf = append(buf, proofBatchMagic...)
	buf = appendBytes(buf, []byte(m))
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(t.sigs)))
	for _, s := range t.sigs {
		buf = appendBytes(buf, s)
	}
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(t.recs)))
	for _, r := range t.recs {
		buf = binary.BigEndian.AppendUint32(buf, r.Pos)
		buf = appendBytes(buf, r.Bytes)
	}
	return append(buf, itemsBuf...), nil
}

// DecodeProofBatch parses a batch blob, eagerly decoding every proof body.
// Allocations are bounded by the bytes actually present, never by claimed
// counts, and only canonical encodings are accepted — anything the encoder
// could not have produced is rejected, so decode → re-encode is identity.
func DecodeProofBatch(buf []byte) (*ProofBatch, int, error) {
	if len(buf) < len(proofBatchMagic) || string(buf[:len(proofBatchMagic)]) != proofBatchMagic {
		return nil, 0, fmt.Errorf("%w: bad batch magic", ErrMalformedProof)
	}
	off := len(proofBatchMagic)
	methodBytes, n, err := decodeBytes(buf[off:])
	if err != nil {
		return nil, 0, err
	}
	off += n
	m := Method(methodBytes)
	impl, ok := LookupMethod(m)
	if !ok {
		return nil, 0, fmt.Errorf("%w %q", ErrUnknownMethod, m)
	}

	// Signature table.
	if len(buf[off:]) < 4 {
		return nil, 0, fmt.Errorf("%w: signature table truncated", ErrMalformedProof)
	}
	sigCount := int(binary.BigEndian.Uint32(buf[off:]))
	off += 4
	if sigCount > maxBatchSigs || sigCount > len(buf[off:])/4 {
		return nil, 0, fmt.Errorf("%w: signature table truncated", ErrMalformedProof)
	}
	t := &batchTables{sigs: make([][]byte, 0, sigCount)}
	sigSeen := make(map[string]struct{}, sigCount)
	for i := 0; i < sigCount; i++ {
		s, n, err := decodeBytes(buf[off:])
		if err != nil {
			return nil, 0, err
		}
		if _, dup := sigSeen[string(s)]; dup {
			return nil, 0, fmt.Errorf("%w: duplicate signature table entry", ErrMalformedProof)
		}
		sigSeen[string(s)] = struct{}{}
		t.sigs = append(t.sigs, s)
		off += n
	}

	// Tuple record table.
	if len(buf[off:]) < 4 {
		return nil, 0, fmt.Errorf("%w: tuple table truncated", ErrMalformedProof)
	}
	recCount := int(binary.BigEndian.Uint32(buf[off:]))
	off += 4
	const maxTuples = 1 << 26
	if recCount > maxTuples || recCount > len(buf[off:])/8 {
		return nil, 0, fmt.Errorf("%w: tuple table truncated", ErrMalformedProof)
	}
	t.recs = make([]tupleRecord, 0, recCount)
	for i := 0; i < recCount; i++ {
		if len(buf[off:]) < 4 {
			return nil, 0, fmt.Errorf("%w: tuple table entry truncated", ErrMalformedProof)
		}
		pos := binary.BigEndian.Uint32(buf[off:])
		off += 4
		body, n, err := decodeBytes(buf[off:])
		if err != nil {
			return nil, 0, err
		}
		off += n
		t.recs = append(t.recs, tupleRecord{Pos: pos, Bytes: body})
	}
	if hasDuplicateRecord(t.recs) {
		return nil, 0, fmt.Errorf("%w: duplicate tuple table entry", ErrMalformedProof)
	}

	// Items.
	if len(buf[off:]) < 4 {
		return nil, 0, fmt.Errorf("%w: item list truncated", ErrMalformedProof)
	}
	itemCount := int(binary.BigEndian.Uint32(buf[off:]))
	off += 4
	if itemCount > maxBatchItems || itemCount > len(buf[off:])/9 {
		return nil, 0, fmt.Errorf("%w: item list truncated", ErrMalformedProof)
	}
	items := make([]BatchItem, 0, itemCount)
	tags := make([]uint8, 0, itemCount)
	bodySeen := make(map[string]struct{}, itemCount)
	for i := 0; i < itemCount; i++ {
		if len(buf[off:]) < 9 {
			return nil, 0, fmt.Errorf("%w: item %d truncated", ErrMalformedProof, i)
		}
		vs := graph.NodeID(binary.BigEndian.Uint32(buf[off:]))
		vt := graph.NodeID(binary.BigEndian.Uint32(buf[off+4:]))
		tag := buf[off+8]
		off += 9
		switch tag {
		case batchItemBody:
			body, n, err := decodeBytes(buf[off:])
			if err != nil {
				return nil, 0, err
			}
			off += n
			if _, dup := bodySeen[string(body)]; dup {
				return nil, 0, fmt.Errorf("%w: duplicate body at item %d must be a backref", ErrMalformedProof, i)
			}
			bodySeen[string(body)] = struct{}{}
			if len(body) < 1 {
				return nil, 0, fmt.Errorf("%w: empty body at item %d", ErrMalformedProof, i)
			}
			if body[0] != batchBodyShared {
				return nil, 0, fmt.Errorf("%w: body form %d not canonical for %s", ErrMalformedProof, body[0], m)
			}
			pr, bn, err := impl.decodeBatchBody(t, body[1:])
			if err != nil {
				return nil, 0, err
			}
			if bn != len(body)-1 {
				return nil, 0, fmt.Errorf("%w: item %d body has %d trailing bytes", ErrMalformedProof, i, len(body)-1-bn)
			}
			items = append(items, BatchItem{VS: vs, VT: vt, Proof: pr})
			tags = append(tags, batchItemBody)
		case batchItemBackref:
			if len(buf[off:]) < 4 {
				return nil, 0, fmt.Errorf("%w: backref truncated", ErrMalformedProof)
			}
			j := binary.BigEndian.Uint32(buf[off:])
			off += 4
			if int64(j) >= int64(i) || tags[j] != batchItemBody {
				return nil, 0, fmt.Errorf("%w: item %d backref %d invalid", ErrMalformedProof, i, j)
			}
			items = append(items, BatchItem{VS: vs, VT: vt, Proof: items[j].Proof})
			tags = append(tags, batchItemBackref)
		default:
			return nil, 0, fmt.Errorf("%w: bad item tag %d", ErrMalformedProof, tag)
		}
	}
	if t.sigUse != uint32(len(t.sigs)) || t.recUse != uint32(len(t.recs)) {
		return nil, 0, fmt.Errorf("%w: unused table entries", ErrMalformedProof)
	}
	return &ProofBatch{Method: m, items: items}, off, nil
}
