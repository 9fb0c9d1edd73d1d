package persist

import (
	"bytes"
	"context"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"mapcomp/internal/algebra"
	"mapcomp/internal/catalog"
	"mapcomp/internal/core"
	"mapcomp/internal/parser"
)

// movieTask is a small multi-artifact task file; applying it is one
// atomic batch mutation.
const movieTask = `
schema original { Movies/6; }
schema fivestar { FiveStarMovies/3; }
map m1 : original -> fivestar {
  proj[1,2,3](sel[#4='5'](Movies)) <= FiveStarMovies;
}
`

func mustParse(t *testing.T, src string) *parser.Problem {
	t.Helper()
	p, err := parser.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if err := parser.Validate(p); err != nil {
		t.Fatal(err)
	}
	return p
}

func schema(t *testing.T, arity int, rel string, key ...int) *algebra.Schema {
	t.Helper()
	sch := algebra.NewSchema()
	sch.Sig[rel] = arity
	if len(key) > 0 {
		sch.Keys[rel] = key
	}
	return sch
}

// schemaItem builds the one-item problem that installs or updates
// schema name.
func schemaItem(name string, sch *algebra.Schema) *parser.Problem {
	return &parser.Problem{Schemas: map[string]*algebra.Schema{name: sch}, SchemaOrder: []string{name}}
}

// mappingItem builds the problem that installs or updates mapping name.
// Replay re-parses a logged problem, and the parser requires a map's
// endpoint schemas to be declared with it, so the problem re-declares
// both at their current signatures.
func mappingItem(t *testing.T, cat *catalog.Catalog, name, from, to string, cs algebra.ConstraintSet) *parser.Problem {
	t.Helper()
	p := &parser.Problem{
		Schemas:     map[string]*algebra.Schema{},
		SchemaOrder: []string{from, to},
		Maps:        map[string]*parser.MapDecl{name: {Name: name, From: from, To: to, Constraints: cs}},
		MapOrder:    []string{name},
	}
	for _, s := range p.SchemaOrder {
		e, ok := cat.Schema(s)
		if !ok {
			t.Fatalf("mapping %s: schema %s is not registered", name, s)
		}
		p.Schemas[s] = e.Schema
	}
	return p
}

// openStore opens dir and recovers into a fresh catalog with logging
// attached — the full boot sequence of cmd/mapcompd.
func openStore(t *testing.T, dir string, opts Options) (*Store, *catalog.Catalog) {
	t.Helper()
	s, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	cat := catalog.New()
	if err := s.Recover(cat); err != nil {
		t.Fatal(err)
	}
	cat.SetLogger(s)
	return s, cat
}

// populate drives six mutations through the catalog: schema
// registration (with keys), mapping registration and update, schema
// update, and a multi-artifact batch.
func populate(t *testing.T, cat *catalog.Catalog) {
	t.Helper()
	if _, err := cat.Apply(schemaItem("src", schema(t, 2, "R", 1))); err != nil {
		t.Fatal(err)
	}
	if _, err := cat.Apply(schemaItem("dst", schema(t, 2, "T"))); err != nil {
		t.Fatal(err)
	}
	cs := parser.MustParseConstraints("R <= T")
	if _, err := cat.Apply(mappingItem(t, cat, "m", "src", "dst", cs)); err != nil {
		t.Fatal(err)
	}
	// Update the mapping (version 2), then widen src, which re-validates m.
	cs2 := parser.MustParseConstraints("R <= T; proj[1](R) <= proj[2](T)")
	if _, err := cat.Apply(mappingItem(t, cat, "m", "src", "dst", cs2)); err != nil {
		t.Fatal(err)
	}
	wider := schema(t, 2, "R", 1)
	wider.Sig["Extra"] = 3
	if _, err := cat.Apply(schemaItem("src", wider)); err != nil {
		t.Fatal(err)
	}
	if _, err := cat.Apply(mustParse(t, movieTask)); err != nil {
		t.Fatal(err)
	}
}

// catalogState flattens a catalog snapshot into comparable values.
type catalogState struct {
	Gen     uint64
	Schemas map[string]snapSchema
	Maps    map[string]snapMapping
}

func stateOf(cat *catalog.Catalog) catalogState {
	schemas, maps, gen := cat.Snapshot()
	doc := buildSnapshot(schemas, maps, gen)
	st := catalogState{Gen: gen, Schemas: map[string]snapSchema{}, Maps: map[string]snapMapping{}}
	for _, s := range doc.Schemas {
		st.Schemas[s.Name] = s
	}
	for _, m := range doc.Mappings {
		st.Maps[m.Name] = m
	}
	return st
}

func assertSameState(t *testing.T, want, got catalogState) {
	t.Helper()
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("recovered catalog differs:\nwant %+v\ngot  %+v", want, got)
	}
}

// TestRecoverFromWALOnly: crash before any snapshot was taken — the
// entire state comes back from WAL replay alone, including versions and
// the generation counter.
func TestRecoverFromWALOnly(t *testing.T) {
	dir := t.TempDir()
	store, cat := openStore(t, dir, Options{SnapshotEvery: -1})
	populate(t, cat)
	want := stateOf(cat)
	if want.Gen != 6 {
		t.Fatalf("expected 6 mutations, generation is %d", want.Gen)
	}
	// Close writes nothing, so the on-disk state is exactly what a
	// crash would leave; it also releases the in-process flock.
	store.Close()

	_, recovered := openStore(t, dir, Options{SnapshotEvery: -1})
	assertSameState(t, want, stateOf(recovered))

	// The recovered catalog keeps serving: compose across the applied
	// batch works and new mutations continue the generation sequence.
	route, err := recovered.Snap().Route("original", "fivestar")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := core.ComposeChain(context.Background(), route.Mappings(), core.DefaultConfig()); err != nil {
		t.Fatal(err)
	}
	if _, err := recovered.Apply(schemaItem("extra", schema(t, 1, "X"))); err != nil {
		t.Fatal(err)
	}
	if g := recovered.Generation(); g != want.Gen+1 {
		t.Fatalf("post-recovery mutation installed generation %d, want %d", g, want.Gen+1)
	}
}

// TestRecoverSnapshotPlusWAL: a snapshot covers a prefix of the
// mutations and the WAL the suffix — the crash happened after more
// mutations landed but before the next snapshot.
func TestRecoverSnapshotPlusWAL(t *testing.T) {
	dir := t.TempDir()
	store, cat := openStore(t, dir, Options{SnapshotEvery: -1})
	if _, err := cat.Apply(schemaItem("src", schema(t, 2, "R", 1))); err != nil {
		t.Fatal(err)
	}
	if err := store.Snapshot(cat); err != nil {
		t.Fatal(err)
	}
	populate(t, cat) // six more mutations, WAL-only
	want := stateOf(cat)
	store.Close()

	store2, recovered := openStore(t, dir, Options{SnapshotEvery: -1})
	assertSameState(t, want, stateOf(recovered))
	st := store2.Stats()
	if st.Recovery.SnapshotGeneration != 1 || st.Recovery.Replayed != 6 {
		t.Fatalf("recovery = %+v, want snapshot generation 1 and 6 replayed records", st.Recovery)
	}
}

// TestSnapshotCompactsWAL: once a snapshot covers every WAL record the
// WAL is truncated, and recovery from the compacted state is identical.
func TestSnapshotCompactsWAL(t *testing.T) {
	dir := t.TempDir()
	store, cat := openStore(t, dir, Options{SnapshotEvery: -1})
	populate(t, cat)
	want := stateOf(cat)
	if st := store.Stats(); st.WALRecords != 6 {
		t.Fatalf("WAL records = %d, want 6", st.WALRecords)
	}
	if err := store.Snapshot(cat); err != nil {
		t.Fatal(err)
	}
	if st := store.Stats(); st.WALRecords != 0 || st.WALBytes != 0 {
		t.Fatalf("WAL not compacted after covering snapshot: %+v", st)
	}
	store.Close()

	store2, recovered := openStore(t, dir, Options{SnapshotEvery: -1})
	assertSameState(t, want, stateOf(recovered))
	if st := store2.Stats(); st.Recovery.Replayed != 0 {
		t.Fatalf("replayed %d records, want pure snapshot recovery", st.Recovery.Replayed)
	}
	// And the store keeps accepting mutations after the compacted boot.
	if _, err := recovered.Apply(schemaItem("extra", schema(t, 1, "X"))); err != nil {
		t.Fatal(err)
	}
	if g := recovered.Generation(); g != want.Gen+1 {
		t.Fatalf("generation after compacted recovery = %d, want %d", g, want.Gen+1)
	}
}

// TestTornFinalRecordTruncated: a crash mid-append leaves a partial
// final frame; recovery drops exactly that record, keeps everything
// before it, and physically truncates the file.
func TestTornFinalRecordTruncated(t *testing.T) {
	for _, cut := range []int{1, 7, 15} { // inside length, inside checksums, inside payload
		dir := t.TempDir()
		store, cat := openStore(t, dir, Options{SnapshotEvery: -1})
		if _, err := cat.Apply(schemaItem("src", schema(t, 2, "R", 1))); err != nil {
			t.Fatal(err)
		}
		want := stateOf(cat)
		if _, err := cat.Apply(schemaItem("dst", schema(t, 2, "T"))); err != nil {
			t.Fatal(err)
		}
		store.Close()

		walPath := filepath.Join(dir, walFile)
		data, err := os.ReadFile(walPath)
		if err != nil {
			t.Fatal(err)
		}
		// Tear the final frame: find its start by decoding the full log.
		recs, _, err := decodeFrames(data)
		if err != nil || len(recs) != 2 {
			t.Fatalf("fixture: %v, %d records", err, len(recs))
		}
		_, firstLen, err := decodeFrames(data[:len(data)-1])
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(walPath, data[:firstLen+cut], 0o644); err != nil {
			t.Fatal(err)
		}

		store2, recovered := openStore(t, dir, Options{SnapshotEvery: -1})
		assertSameState(t, want, stateOf(recovered))
		if st := store2.Stats(); st.Recovery.TornBytesTruncated != int64(cut) {
			t.Fatalf("cut=%d: TornBytesTruncated = %d", cut, st.Recovery.TornBytesTruncated)
		}
		if info, err := os.Stat(walPath); err != nil || info.Size() != int64(firstLen) {
			t.Fatalf("cut=%d: WAL not truncated to %d: %v %v", cut, firstLen, info, err)
		}
		// The next mutation appends cleanly on the frame boundary.
		if _, err := recovered.Apply(schemaItem("dst", schema(t, 2, "T"))); err != nil {
			t.Fatal(err)
		}
		store2.Close()
		_, again := openStore(t, dir, Options{SnapshotEvery: -1})
		if g := again.Generation(); g != 2 {
			t.Fatalf("cut=%d: generation after re-append and re-recovery = %d, want 2", cut, g)
		}
	}
}

// TestCorruptMidLogFailsLoudly: flipping bytes inside an earlier,
// complete record must fail recovery with ErrCorrupt — not silently
// drop acknowledged mutations.
func TestCorruptMidLogFailsLoudly(t *testing.T) {
	dir := t.TempDir()
	store, cat := openStore(t, dir, Options{SnapshotEvery: -1})
	populate(t, cat)
	store.Close()

	walPath := filepath.Join(dir, walFile)
	data, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	data[frameHeaderLen+2] ^= 0xff // inside the first record's payload
	if err := os.WriteFile(walPath, data, 0o644); err != nil {
		t.Fatal(err)
	}

	_, err = Open(dir, Options{})
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Open on corrupt WAL = %v, want ErrCorrupt", err)
	}
}

// TestCorruptLengthFieldFailsLoudly: a bit flip inside a mid-log
// frame's length field must fail recovery with ErrCorrupt — the length
// checksum keeps it from masquerading as a torn tail, which would
// silently truncate every acknowledged record after it.
func TestCorruptLengthFieldFailsLoudly(t *testing.T) {
	dir := t.TempDir()
	store, cat := openStore(t, dir, Options{SnapshotEvery: -1})
	populate(t, cat)
	store.Close()

	walPath := filepath.Join(dir, walFile)
	data, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	data[1] |= 0x40 // high byte of the first frame's length: now runs past EOF
	if err := os.WriteFile(walPath, data, 0o644); err != nil {
		t.Fatal(err)
	}

	_, err = Open(dir, Options{})
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Open on a length-corrupted WAL = %v, want ErrCorrupt", err)
	}
}

// TestApplyAtomicAcrossCrash: a batch Apply is one WAL record. If its
// frame is torn, recovery lands exactly on the pre-batch state — no
// half-installed batch.
func TestApplyAtomicAcrossCrash(t *testing.T) {
	dir := t.TempDir()
	store, cat := openStore(t, dir, Options{SnapshotEvery: -1})
	if _, err := cat.Apply(schemaItem("solo", schema(t, 1, "S"))); err != nil {
		t.Fatal(err)
	}
	want := stateOf(cat)
	if _, err := cat.Apply(mustParse(t, movieTask)); err != nil {
		t.Fatal(err)
	}
	store.Close()

	walPath := filepath.Join(dir, walFile)
	data, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	_, prefix, err := decodeFrames(data[:len(data)-1])
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(walPath, data[:prefix+3], 0o644); err != nil {
		t.Fatal(err)
	}

	_, recovered := openStore(t, dir, Options{SnapshotEvery: -1})
	assertSameState(t, want, stateOf(recovered))
	if _, ok := recovered.Schema("original"); ok {
		t.Fatal("torn Apply record half-installed its batch")
	}
}

// TestGenerationGapFailsLoudly: a WAL that skips a generation means a
// mutation vanished; recovery must refuse rather than renumber.
func TestGenerationGapFailsLoudly(t *testing.T) {
	dir := t.TempDir()
	store, cat := openStore(t, dir, Options{SnapshotEvery: -1})
	populate(t, cat)
	store.Close()

	walPath := filepath.Join(dir, walFile)
	data, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	// Drop the first record entirely: the log now starts at generation 2.
	recs, _, err := decodeFrames(data)
	if err != nil {
		t.Fatal(err)
	}
	if recs[0].Gen != 1 {
		t.Fatalf("fixture: first record at generation %d", recs[0].Gen)
	}
	firstFrameLen := frameHeaderLen + int(uint32(data[0])|uint32(data[1])<<8|uint32(data[2])<<16|uint32(data[3])<<24)
	if err := os.WriteFile(walPath, data[firstFrameLen:], 0o644); err != nil {
		t.Fatal(err)
	}

	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	err = s.Recover(catalog.New())
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Recover over a generation gap = %v, want ErrCorrupt", err)
	}
}

// TestSnapshotSurvivesConcurrentMutations: snapshots taken while
// mutations land stay consistent — whatever generation the snapshot
// captured, recovery replays the rest from the WAL.
func TestSnapshotCadenceSignal(t *testing.T) {
	dir := t.TempDir()
	store, cat := openStore(t, dir, Options{SnapshotEvery: 2})
	if _, err := cat.Apply(schemaItem("a", schema(t, 1, "A"))); err != nil {
		t.Fatal(err)
	}
	select {
	case <-store.SnapshotNeeded():
		t.Fatal("cadence signal after one mutation with SnapshotEvery=2")
	default:
	}
	if _, err := cat.Apply(schemaItem("b", schema(t, 1, "B"))); err != nil {
		t.Fatal(err)
	}
	select {
	case <-store.SnapshotNeeded():
	default:
		t.Fatal("no cadence signal after two mutations with SnapshotEvery=2")
	}
	if err := store.Snapshot(cat); err != nil {
		t.Fatal(err)
	}
	if st := store.Stats(); st.SnapshotGeneration != 2 || st.WALRecords != 0 {
		t.Fatalf("stats after cadence snapshot: %+v", st)
	}
}

// TestRecoverRejectsDoubleUse and logger preconditions.
func TestStorePreconditions(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.AppendMutation(&catalog.Mutation{Gen: 1, Problem: schemaItem("x", schema(t, 1, "X"))}); err == nil {
		t.Fatal("AppendMutation before Recover succeeded")
	}
	if err := s.Recover(catalog.New()); err != nil {
		t.Fatal(err)
	}
	if err := s.Recover(catalog.New()); err == nil {
		t.Fatal("second Recover succeeded")
	}
	// The directory lock keeps a second process (or a double start in
	// this one) from interleaving WAL appends.
	if _, err := Open(dir, Options{}); err == nil {
		t.Fatal("concurrent Open of a locked data directory succeeded")
	}
	s.Close()
	if _, err := Open(dir, Options{}); err != nil {
		t.Fatalf("Open after releasing the lock: %v", err)
	}
}

// TestConcurrentMutationsAndSnapshots exercises the catalog→store lock
// order under the race detector: writers mutate (appending inside the
// catalog write lock) while snapshots run concurrently, then recovery
// must reproduce the final state exactly.
func TestConcurrentMutationsAndSnapshots(t *testing.T) {
	dir := t.TempDir()
	store, cat := openStore(t, dir, Options{SnapshotEvery: -1})

	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				name := fmt.Sprintf("s%d", w)
				if _, err := cat.Apply(schemaItem(name, schema(t, 2, fmt.Sprintf("R%d", w)))); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 10; i++ {
			if err := store.Snapshot(cat); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()
	if err := store.Snapshot(cat); err != nil {
		t.Fatal(err)
	}
	want := stateOf(cat)
	if want.Gen != 80 {
		t.Fatalf("generation = %d, want 80", want.Gen)
	}
	store.Close()

	_, recovered := openStore(t, dir, Options{SnapshotEvery: -1})
	assertSameState(t, want, stateOf(recovered))
}

// TestFailedAppendPoisonsStore: a WAL I/O failure that cannot be rolled
// back must poison the store — further mutations are refused, the
// catalog stays on its acknowledged state, and recovery reproduces
// exactly that state (never a rejected mutation). The failure is forced
// by closing the WAL file descriptor under the store, which makes both
// the append and the rollback truncate fail.
func TestFailedAppendPoisonsStore(t *testing.T) {
	dir := t.TempDir()
	store, cat := openStore(t, dir, Options{SnapshotEvery: -1})
	if _, err := cat.Apply(schemaItem("keep", schema(t, 1, "K"))); err != nil {
		t.Fatal(err)
	}
	want := stateOf(cat)

	store.mu.Lock()
	store.wal.Close() // simulate the disk going away
	store.mu.Unlock()

	if _, err := cat.Apply(schemaItem("lost", schema(t, 1, "L"))); err == nil {
		t.Fatal("mutation committed although the WAL append failed")
	}
	if g := cat.Generation(); g != want.Gen {
		t.Fatalf("generation moved to %d on a failed append", g)
	}
	if _, err := cat.Apply(schemaItem("lost2", schema(t, 1, "M"))); err == nil {
		t.Fatal("poisoned store accepted a mutation")
	}
	if _, ok := cat.Schema("lost"); ok {
		t.Fatal("failed mutation is visible in the catalog")
	}

	store.mu.Lock()
	store.wal = nil // already closed; keep Close() from double-closing
	store.mu.Unlock()
	store.Close() // releases the directory lock

	_, recovered := openStore(t, dir, Options{SnapshotEvery: -1})
	assertSameState(t, want, stateOf(recovered))
}

// TestLoggerOrderingUnderLockFreeReads: the WAL append happens inside
// the catalog's mutation lock strictly before the copy-on-write
// snapshot is published, so any generation a lock-free reader observes
// is already durable. The test races readers against logged mutations
// and then proves the WAL covers the final observed generation exactly.
func TestLoggerOrderingUnderLockFreeReads(t *testing.T) {
	dir := t.TempDir()
	s, cat := openStore(t, dir, Options{SnapshotEvery: -1})
	if _, err := cat.Apply(schemaItem("src", schema(t, 2, "R", 1))); err != nil {
		t.Fatal(err)
	}
	if _, err := cat.Apply(schemaItem("dst", schema(t, 2, "T"))); err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	var maxSeen atomic.Uint64
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var last uint64
			for {
				select {
				case <-stop:
					return
				default:
				}
				g := cat.Generation()
				if g < last {
					t.Errorf("generation went backwards: %d then %d", last, g)
					return
				}
				last = g
				for {
					prev := maxSeen.Load()
					if g <= prev || maxSeen.CompareAndSwap(prev, g) {
						break
					}
				}
			}
		}()
	}
	for i := 0; i < 30; i++ {
		cs := parser.MustParseConstraints("R <= T")
		if _, err := cat.Apply(mappingItem(t, cat, fmt.Sprintf("m%d", i), "src", "dst", cs)); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()

	// Reboot from the WAL alone: every generation any reader observed
	// must be covered (write-ahead), and the final states must agree.
	want := stateOf(cat)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	_, recovered := openStore(t, dir, Options{SnapshotEvery: -1})
	got := stateOf(recovered)
	if recovered.Generation() < maxSeen.Load() {
		t.Fatalf("recovered generation %d < observed %d: a reader saw a non-durable mutation",
			recovered.Generation(), maxSeen.Load())
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("recovered state differs:\n%+v\nvs\n%+v", want, got)
	}
}

// TestNonApplyRecordIsCorrupt: every catalog mutation is an Apply, so a
// WAL record of any other kind — such as the single-schema and
// single-mapping records earlier builds defined but never wrote — fails
// Open with ErrCorrupt before anything replays.
func TestNonApplyRecordIsCorrupt(t *testing.T) {
	for _, payload := range []string{
		`{"gen":1,"kind":"schema","name":"x","relations":{"X":1}}`,
		`{"gen":1,"kind":"mapping","name":"m","from":"a","to":"b","constraints":["A <= B"]}`,
		`{"gen":1,"problem":"schema x {\n  X/1;\n}\n"}`,
	} {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, walFile), encodeFrame([]byte(payload)), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Open(dir, Options{}); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("Open on %s = %v, want ErrCorrupt", payload, err)
		}
	}
}

// goldenApplyFrame is one apply record as every build since the WAL was
// introduced frames it: the 12-byte header, then the JSON payload.
const (
	goldenApplyHeader  = "d8000000c40f41ae9a48ebf6"
	goldenApplyPayload = `{"gen":1,"kind":"apply","problem":"schema original {\n  Movies/6;\n}\nschema fivestar {\n  FiveStarMovies/3;\n}\nmap m1 : original -\u003e fivestar {\n  proj[1,2,3](sel[#4='5'](Movies)) \u003c= FiveStarMovies;\n}\n"}`
)

// TestApplyRecordGoldenBytes pins the on-disk apply record in both
// directions: encoding movieTask at generation 1 yields exactly the
// golden frame, so older builds read new logs, and a log holding the
// golden frame recovers into the batch, so new builds read old logs.
func TestApplyRecordGoldenBytes(t *testing.T) {
	rec, err := encodeMutation(&catalog.Mutation{Gen: 1, Problem: mustParse(t, movieTask)})
	if err != nil {
		t.Fatal(err)
	}
	payload, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	frame := encodeFrame(payload)
	header, err := hex.DecodeString(goldenApplyHeader)
	if err != nil {
		t.Fatal(err)
	}
	golden := append(header, goldenApplyPayload...)
	if !bytes.Equal(frame, golden) {
		t.Fatalf("apply frame changed:\ngot  %x %s\nwant %x %s", frame[:frameHeaderLen], frame[frameHeaderLen:], header, goldenApplyPayload)
	}

	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, walFile), golden, 0o644); err != nil {
		t.Fatal(err)
	}
	store, cat := openStore(t, dir, Options{SnapshotEvery: -1})
	if st := store.Stats(); st.Recovery.Replayed != 1 || cat.Generation() != 1 {
		t.Fatalf("recovery = %+v at generation %d, want one replayed record at generation 1", st.Recovery, cat.Generation())
	}
	if m, ok := cat.Mapping("m1"); !ok || m.From != "original" || m.To != "fivestar" || m.Generation != 1 {
		t.Fatalf("golden record recovered mapping m1 = %+v, %v", m, ok)
	}
}

// TestAppendRefusesUndeclaredEndpoint: a hand-built problem whose map
// rides on already registered schemas is a valid Apply, but its
// rendered task file would not re-parse on replay; the store refuses to
// log it, so the catalog rejects the mutation and the data directory
// stays recoverable.
func TestAppendRefusesUndeclaredEndpoint(t *testing.T) {
	dir := t.TempDir()
	store, cat := openStore(t, dir, Options{SnapshotEvery: -1})
	if _, err := cat.Apply(mustParse(t, movieTask)); err != nil {
		t.Fatal(err)
	}
	want := stateOf(cat)
	bare := &parser.Problem{
		Maps:     map[string]*parser.MapDecl{"m2": {Name: "m2", From: "original", To: "fivestar", Constraints: parser.MustParseConstraints("proj[1,2,3](Movies) <= FiveStarMovies")}},
		MapOrder: []string{"m2"},
	}
	if _, err := cat.Apply(bare); !errors.Is(err, catalog.ErrPersist) {
		t.Fatalf("Apply of a map without its endpoint schemas = %v, want ErrPersist", err)
	}
	assertSameState(t, want, stateOf(cat))
	store.Close()

	_, recovered := openStore(t, dir, Options{SnapshotEvery: -1})
	assertSameState(t, want, stateOf(recovered))
}
