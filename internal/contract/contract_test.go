package contract

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"testing"
	"testing/quick"

	"waitornot/internal/chain"
	"waitornot/internal/keys"
)

func TestEncodeDecodeCallRoundTrip(t *testing.T) {
	cases := []struct {
		method string
		args   [][]byte
	}{
		{"submit", [][]byte{{1, 2}, {}, {3}}},
		{"register", [][]byte{[]byte("A")}},
		{"noargs", nil},
		{"", [][]byte{{0}}},
	}
	for _, tc := range cases {
		payload := EncodeCall(tc.method, tc.args...)
		m, args, err := DecodeCall(payload)
		if err != nil {
			t.Fatalf("%q: %v", tc.method, err)
		}
		if m != tc.method || len(args) != len(tc.args) {
			t.Fatalf("%q: decoded %q with %d args", tc.method, m, len(args))
		}
		for i := range args {
			if !bytes.Equal(args[i], tc.args[i]) {
				t.Fatalf("%q: arg %d mismatch", tc.method, i)
			}
		}
	}
}

func TestDecodeCallRejectsGarbage(t *testing.T) {
	bad := [][]byte{
		nil,
		{1},
		{255, 255, 0, 0},             // method length overruns
		append(EncodeCall("m"), 0x7), // trailing byte
	}
	for i, payload := range bad {
		if _, _, err := DecodeCall(payload); err == nil {
			t.Errorf("case %d: garbage accepted", i)
		}
	}
}

func TestDecodeCallFuzzProperty(t *testing.T) {
	// DecodeCall must never panic on arbitrary bytes.
	check := func(payload []byte) bool {
		_, _, _ = DecodeCall(payload)
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestU64RoundTrip(t *testing.T) {
	for _, v := range []uint64{0, 1, 1 << 40, ^uint64(0)} {
		got, err := ParseU64(U64(v))
		if err != nil || got != v {
			t.Fatalf("u64 round trip %d -> %d (%v)", v, got, err)
		}
	}
	if _, err := ParseU64([]byte{1, 2}); err == nil {
		t.Fatal("short u64 accepted")
	}
}

// execTx runs a payload through the VM against st.
func execTx(t *testing.T, vm *VM, st *chain.State, k *keys.Key, to keys.Address, payload []byte) (uint64, []chain.Log, error) {
	t.Helper()
	tx := &chain.Transaction{To: to, Payload: payload, GasLimit: 1 << 40}
	if err := tx.Sign(k); err != nil {
		t.Fatal(err)
	}
	return vm.Execute(tx, st)
}

func TestRegistryRegisterAndRead(t *testing.T) {
	vm := NewVM(chain.DefaultGasSchedule())
	st := chain.NewState()
	ka := keys.GenerateDeterministic(1)
	kb := keys.GenerateDeterministic(2)

	gas, logs, err := execTx(t, vm, st, ka, RegistryAddress, RegisterCallData("A"))
	if err != nil {
		t.Fatal(err)
	}
	if gas == 0 {
		t.Fatal("registration must cost gas")
	}
	if len(logs) != 1 || logs[0].Topic != "Registered" {
		t.Fatalf("logs = %+v", logs)
	}
	if _, _, err := execTx(t, vm, st, kb, RegistryAddress, RegisterCallData("B")); err != nil {
		t.Fatal(err)
	}
	// Duplicate registration reverts.
	if _, _, err := execTx(t, vm, st, ka, RegistryAddress, RegisterCallData("A2")); err == nil {
		t.Fatal("duplicate registration accepted")
	}

	parts := Participants(st)
	if len(parts) != 2 || parts[0].Name != "A" || parts[1].Name != "B" {
		t.Fatalf("participants = %+v", parts)
	}
	if NameOf(st, ka.Address()) != "A" || NameOf(st, kb.Address()) != "B" {
		t.Fatal("NameOf resolution wrong")
	}
	if NameOf(st, keys.Address{9}) != "" {
		t.Fatal("unknown address must resolve empty")
	}
}

func TestRegistryRejectsBadArgs(t *testing.T) {
	vm := NewVM(chain.DefaultGasSchedule())
	st := chain.NewState()
	k := keys.GenerateDeterministic(3)
	if _, _, err := execTx(t, vm, st, k, RegistryAddress, EncodeCall("register")); err == nil {
		t.Fatal("missing name accepted")
	}
	if _, _, err := execTx(t, vm, st, k, RegistryAddress, EncodeCall("register", []byte{})); err == nil {
		t.Fatal("empty name accepted")
	}
	if _, _, err := execTx(t, vm, st, k, RegistryAddress, EncodeCall("frobnicate")); !errors.Is(err, ErrUnknownMethod) {
		t.Fatalf("unknown method: %v", err)
	}
}

func TestAggregationSubmitAndRead(t *testing.T) {
	vm := NewVM(chain.DefaultGasSchedule())
	st := chain.NewState()
	ka := keys.GenerateDeterministic(1)
	kb := keys.GenerateDeterministic(2)
	weights := []byte("pretend-weight-blob")

	if _, logs, err := execTx(t, vm, st, ka, AggregationAddress, SubmitCallData(3, 1, 500, weights)); err != nil {
		t.Fatal(err)
	} else if len(logs) != 1 || logs[0].Topic != "ModelSubmitted" {
		t.Fatalf("logs = %+v", logs)
	}
	if _, _, err := execTx(t, vm, st, kb, AggregationAddress, SubmitCallData(3, 1, 700, weights)); err != nil {
		t.Fatal(err)
	}
	// Duplicate (round, sender) reverts.
	if _, _, err := execTx(t, vm, st, ka, AggregationAddress, SubmitCallData(3, 1, 500, weights)); err == nil {
		t.Fatal("duplicate submission accepted")
	}
	// Different round is fine.
	if _, _, err := execTx(t, vm, st, ka, AggregationAddress, SubmitCallData(4, 1, 500, weights)); err != nil {
		t.Fatal(err)
	}

	subs := SubmissionsAt(st, 3)
	if len(subs) != 2 {
		t.Fatalf("%d submissions at round 3", len(subs))
	}
	wantHash := sha256.Sum256(weights)
	for _, s := range subs {
		if s.Round != 3 || s.WeightsHash != chain.Hash(wantHash) || s.PayloadSize != uint64(len(weights)) {
			t.Fatalf("submission = %+v", s)
		}
	}
	if len(SubmissionsAt(st, 99)) != 0 {
		t.Fatal("phantom submissions")
	}
}

func TestAggregationRecordDecision(t *testing.T) {
	vm := NewVM(chain.DefaultGasSchedule())
	st := chain.NewState()
	k := keys.GenerateDeterministic(5)
	var rh chain.Hash
	rh[0] = 0xaa

	if _, _, err := execTx(t, vm, st, k, AggregationAddress, RecordCallData(2, "A,B", rh, 2)); err != nil {
		t.Fatal(err)
	}
	decs := DecisionsAt(st, 2)
	if len(decs) != 1 {
		t.Fatalf("%d decisions", len(decs))
	}
	d := decs[0]
	if d.Combo != "A,B" || d.ResultHash != rh || d.NumIncluded != 2 || d.Peer != k.Address() {
		t.Fatalf("decision = %+v", d)
	}
}

func TestAggregationRejectsBadArgs(t *testing.T) {
	vm := NewVM(chain.DefaultGasSchedule())
	st := chain.NewState()
	k := keys.GenerateDeterministic(6)
	bad := [][]byte{
		EncodeCall("submit"),
		EncodeCall("submit", U64(1), U64(1), U64(1), nil),          // empty weights
		EncodeCall("submit", []byte{1}, U64(1), U64(1), []byte{1}), // short round
		EncodeCall("record", U64(1), []byte(""), make([]byte, 32), U64(1)),
		EncodeCall("record", U64(1), []byte("A"), []byte{1, 2}, U64(1)), // short hash
	}
	for i, payload := range bad {
		if _, _, err := execTx(t, vm, st, k, AggregationAddress, payload); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestSubmissionEncodingRoundTrip(t *testing.T) {
	s := &Submission{Round: 7, ModelID: 2, NumSamples: 123, PayloadSize: 456}
	s.Sender = keys.GenerateDeterministic(9).Address()
	s.WeightsHash[3] = 0x7
	s.TxHash[8] = 0x9
	got, err := decodeSubmission(s.encode())
	if err != nil {
		t.Fatal(err)
	}
	if *got != *s {
		t.Fatalf("round trip: %+v != %+v", got, s)
	}
	if _, err := decodeSubmission([]byte{1, 2, 3}); err == nil {
		t.Fatal("short submission accepted")
	}
}

func TestDecisionEncodingRoundTrip(t *testing.T) {
	d := &Decision{Round: 9, Combo: "A,B,C", NumIncluded: 3}
	d.Peer = keys.GenerateDeterministic(10).Address()
	d.ResultHash[1] = 0xee
	got, err := decodeDecision(d.encode())
	if err != nil {
		t.Fatal(err)
	}
	if *got != *d {
		t.Fatalf("round trip: %+v != %+v", got, d)
	}
	if _, err := decodeDecision(nil); err == nil {
		t.Fatal("nil decision accepted")
	}
}

func TestVMPlainTransferIgnoresPayload(t *testing.T) {
	vm := NewVM(chain.DefaultGasSchedule())
	st := chain.NewState()
	k := keys.GenerateDeterministic(11)
	other := keys.GenerateDeterministic(12).Address()
	gas, logs, err := execTx(t, vm, st, k, other, []byte("not a call"))
	if err != nil || gas != 0 || logs != nil {
		t.Fatalf("plain transfer: gas=%d logs=%v err=%v", gas, logs, err)
	}
}

func TestVMChargesGasForStorageAndLogs(t *testing.T) {
	gs := chain.DefaultGasSchedule()
	vm := NewVM(gs)
	st := chain.NewState()
	k := keys.GenerateDeterministic(13)
	small := SubmitCallData(1, 1, 1, []byte("x"))
	execSmall, _, err := execTx(t, vm, st, k, AggregationAddress, small)
	if err != nil {
		t.Fatal(err)
	}
	if execSmall <= gs.ContractOp {
		t.Fatal("submission must charge storage/log gas beyond dispatch")
	}
	// The contract stores only a fixed-size digest record, so execution
	// gas is size-independent; the per-byte cost of carrying the model
	// lives in the *intrinsic* calldata gas, as in the paper (ref [12]).
	st2 := chain.NewState()
	big := SubmitCallData(1, 1, 1, bytes.Repeat([]byte("y"), 1000))
	execBig, _, err := execTx(t, vm, st2, k, AggregationAddress, big)
	if err != nil {
		t.Fatal(err)
	}
	totalSmall := gs.Intrinsic(small) + execSmall
	totalBig := gs.Intrinsic(big) + execBig
	if totalBig <= totalSmall {
		t.Fatal("bigger model submission must cost more total gas")
	}
}

// TestEndToEndOnChain drives the contracts through the real chain: sign,
// mine, execute, read back from the post-state.
func TestEndToEndOnChain(t *testing.T) {
	gs := chain.DefaultGasSchedule()
	vm := NewVM(gs)
	cfg := chain.DefaultConfig()
	cfg.GenesisDifficulty = 4
	cfg.MinDifficulty = 1
	ka := keys.GenerateDeterministic(21)
	km := keys.GenerateDeterministic(22)
	c := chain.New(cfg, map[keys.Address]uint64{ka.Address(): 1 << 62}, vm)

	tx1, err := chain.NewTx(ka, 0, RegistryAddress, 0, RegisterCallData("A"), gs, 1_000_000, 1)
	if err != nil {
		t.Fatal(err)
	}
	tx2, err := chain.NewTx(ka, 1, AggregationAddress, 0, SubmitCallData(1, 1, 42, []byte("w")), gs, 1_000_000, 1)
	if err != nil {
		t.Fatal(err)
	}
	b := c.AssembleAndMine(km.Address(), []*chain.Transaction{tx1, tx2}, 1500)
	if len(b.Txs) != 2 {
		t.Fatalf("assembled block wrong: %+v", b)
	}
	if err := c.AddBlock(b); err != nil {
		t.Fatal(err)
	}
	st := c.StateCopy()
	if NameOf(st, ka.Address()) != "A" {
		t.Fatal("registration not visible on chain")
	}
	subs := SubmissionsAt(st, 1)
	if len(subs) != 1 || subs[0].TxHash != tx2.Hash() {
		t.Fatalf("submission not recorded: %+v", subs)
	}
	// The weights can be recovered from the carrying transaction.
	carried := c.Head().Txs[1]
	method, args, err := DecodeCall(carried.Payload)
	if err != nil || method != "submit" {
		t.Fatal("cannot decode carried payload")
	}
	if !bytes.Equal(args[3], []byte("w")) {
		t.Fatal("weights not recoverable from calldata")
	}
}
