package persist

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
)

// WAL framing. Every record is framed as
//
//	uint32 LE payload length | uint32 LE CRC-32C of the length bytes |
//	uint32 LE CRC-32C of payload | payload
//
// and the payload is the JSON encoding of a record. Appends are
// fsynced, so after AppendMutation returns the mutation survives a
// crash; the only partial state a crash can leave is an incomplete
// final frame (a torn write), which recovery detects and truncates.
//
// The decode rules implement the recovery contract:
//
//   - an incomplete frame at the end of the log (partial header, or an
//     authenticated declared length running past EOF) is a torn tail:
//     everything before it is kept, the tail is discarded and
//     physically truncated;
//   - a complete frame whose checksum or JSON does not verify, or whose
//     declared length is implausible, is corruption: recovery fails
//     loudly (wrapping ErrCorrupt) rather than silently dropping
//     acknowledged mutations.
//
// The separate length checksum is what keeps those two cases apart: a
// length that runs past EOF is only treated as a torn tail because its
// checksum proves the length bytes are authentic (the frame really was
// cut short mid-payload). A bit flip inside the length field of a
// mid-log record fails the length checksum and is loud, instead of
// masquerading as a torn tail and silently truncating every
// acknowledged record after it.

// ErrCorrupt reports a WAL entry that is present but does not verify.
var ErrCorrupt = errors.New("persist: corrupt WAL entry")

// maxRecordBytes bounds one WAL record. The server bounds request
// bodies to 8 MiB, so any declared frame length beyond this cannot be a
// record this process wrote.
const maxRecordBytes = 32 << 20

const frameHeaderLen = 12

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// record is the JSON payload of one WAL frame: one catalog Apply, its
// task file re-rendered by parser.Format.
type record struct {
	Gen     uint64 `json:"gen"`
	Kind    string `json:"kind"`
	Problem string `json:"problem,omitempty"`
}

// applyKind is every record's kind. Every catalog mutation is an Apply;
// the field stays so the log keeps the layout earlier builds read.
const applyKind = "apply"

// encodeFrame frames an encoded payload.
func encodeFrame(payload []byte) []byte {
	out := make([]byte, frameHeaderLen+len(payload))
	binary.LittleEndian.PutUint32(out[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(out[4:8], crc32.Checksum(out[0:4], crcTable))
	binary.LittleEndian.PutUint32(out[8:12], crc32.Checksum(payload, crcTable))
	copy(out[frameHeaderLen:], payload)
	return out
}

// decodeFrames parses every complete frame in data. It returns the
// decoded records and the byte length of the valid prefix: validLen <
// len(data) means the log ends in a torn frame the caller should
// truncate away. Corruption — a complete frame that fails its checksum,
// an implausible length, an undecodable payload, or a record that is not
// an apply — returns an error wrapping ErrCorrupt.
func decodeFrames(data []byte) (recs []record, validLen int, err error) {
	off := 0
	for off < len(data) {
		if len(data)-off < frameHeaderLen {
			return recs, off, nil // torn header at EOF
		}
		n := int(binary.LittleEndian.Uint32(data[off : off+4]))
		lenSum := binary.LittleEndian.Uint32(data[off+4 : off+8])
		if crc32.Checksum(data[off:off+4], crcTable) != lenSum {
			return nil, 0, fmt.Errorf("%w: length checksum mismatch at offset %d", ErrCorrupt, off)
		}
		if n > maxRecordBytes {
			return nil, 0, fmt.Errorf("%w: frame at offset %d declares implausible length %d", ErrCorrupt, off, n)
		}
		if len(data)-off-frameHeaderLen < n {
			// The length is authenticated, so the frame really was cut
			// short mid-payload: a torn tail.
			return recs, off, nil
		}
		sum := binary.LittleEndian.Uint32(data[off+8 : off+12])
		payload := data[off+frameHeaderLen : off+frameHeaderLen+n]
		if crc32.Checksum(payload, crcTable) != sum {
			return nil, 0, fmt.Errorf("%w: payload checksum mismatch at offset %d", ErrCorrupt, off)
		}
		var rec record
		if jerr := json.Unmarshal(payload, &rec); jerr != nil {
			return nil, 0, fmt.Errorf("%w: undecodable payload at offset %d: %v", ErrCorrupt, off, jerr)
		}
		if rec.Gen == 0 || rec.Kind != applyKind {
			return nil, 0, fmt.Errorf("%w: record at offset %d is not an apply with a generation (gen %d, kind %q)", ErrCorrupt, off, rec.Gen, rec.Kind)
		}
		recs = append(recs, rec)
		off += frameHeaderLen + n
	}
	return recs, off, nil
}
