package shardrpc

import (
	"encoding/hex"
	"reflect"
	"testing"
	"time"

	"repro/internal/fleet/engine"
	"repro/internal/hwdb"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// goldenRequests is one request of each verb, every body field set.
func goldenRequests() []*Request {
	return []*Request{
		{Seq: 101, Verb: VerbAssign, ID: 300},
		{Seq: 102, Verb: VerbDrain, ID: 301},
		{Seq: 103, Verb: VerbCordon, ID: 302},
		{Seq: 104, Verb: VerbUncordon, ID: 303},
		{Seq: 105, Verb: VerbStep, DT: 0.125},
		{Seq: 106, Verb: VerbSync, Now: -1234567},
		{Seq: 107, Verb: VerbStats},
		{Seq: 108, Verb: VerbTrace},
		{Seq: 109, Verb: VerbResync},
		{Seq: 110, Verb: VerbClose},
		{Seq: 111, Verb: VerbPing},
	}
}

// goldenRequestHex is each goldenRequests entry as HWSH/2 puts it in a
// frame's payload.
var goldenRequestHex = []string{
	"485753482f32203130312041535349474e0aac02",
	"485753482f322031303220445241494e0aad02",
	"485753482f322031303320434f52444f4e0aae02",
	"485753482f322031303420554e434f52444f4e0aaf02",
	"485753482f322031303520535445500a3fc0000000000000",
	"485753482f32203130362053594e430a8dda9601",
	"485753482f32203130372053544154530a",
	"485753482f32203130382054524143450a",
	"485753482f322031303920524553594e430a",
	"485753482f322031313020434c4f53450a",
	"485753482f32203131312050494e470a",
}

// goldenResponses is one response of each verb, and an ERR, every body
// field set; no two fields of a body share a value.
func goldenResponses() []*Response {
	ts := time.Unix(1313398800, 0)
	batch := func(seq uint64) *Batch {
		return &Batch{Seq: seq, SentRows: seq + 1, SentLost: seq + 2, Deltas: []telemetry.Delta{{
			Source: telemetry.SourceID{Home: 7, Table: hwdb.TableFlows}, Lost: 3,
			Rows: []hwdb.Row{hwdb.NewRow(ts, hwdb.Int64(-5), hwdb.Str("x"))},
		}}}
	}
	snap := &trace.Snapshot{Overwritten: 9}
	for i := range snap.Hists {
		h := &snap.Hists[i]
		h.Count, h.SumNS, h.MaxNS = uint64(10+i), uint64(1000+i), -int64(i+1)
		for j := range h.Buckets {
			h.Buckets[j] = uint64(i*100 + j)
		}
	}
	return []*Response{
		{Seq: 201, Err: "fleet: home 3 already live"},
		{Seq: 202, Verb: VerbAssign},
		{Seq: 203, Verb: VerbDrain, OK: true, Batch: batch(20)},
		{Seq: 204, Verb: VerbCordon, OK: true},
		{Seq: 205, Verb: VerbUncordon, OK: true},
		{Seq: 206, Verb: VerbStep},
		{Seq: 207, Verb: VerbSync, Batch: batch(30)},
		{Seq: 208, Verb: VerbStats, Stats: &engine.Stats{Shard: -2, Homes: 17, Steps: 1 << 40,
			Hub: telemetry.HubStats{Sources: 68, Delivered: 123456, Lost: 7}}},
		{Seq: 209, Verb: VerbTrace, Snap: snap},
		{Seq: 210, Verb: VerbResync, Committed: &Books{Seq: 3, SentRows: 55, SentLost: 2}},
		{Seq: 211, Verb: VerbClose},
		{Seq: 212, Verb: VerbPing},
	}
}

// goldenResponseHex is each goldenResponses entry as HWSH/2 puts it in a
// frame's payload.
var goldenResponseHex = []string{
	"485753482f32203230312045525220666c6565743a20686f6d65203320616c7265616479206c6976650a",
	"485753482f3220323032204f4b2041535349474e0a",
	"485753482f3220323033204f4b20445241494e0a0114151601010301010705466c6f777303010201030100a06cfa3f213a12fbffffffffffffff00000000000000000178",
	"485753482f3220323034204f4b20434f52444f4e0a01",
	"485753482f3220323035204f4b20554e434f52444f4e0a01",
	"485753482f3220323036204f4b20535445500a",
	"485753482f3220323037204f4b2053594e430a1e1f2001010301010705466c6f777303010201030100a06cfa3f213a12fbffffffffffffff00000000000000000178",
	"485753482f3220323038204f4b2053544154530a03228080808080208801c0c40707",
	"485753482f3220323039204f4b2054524143450a050ae8070130000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f202122232425262728292a2b2c2d2e2f0be90703306465666768696a6b6c6d6e6f707172737475767778797a7b7c7d7e7f80018101820183018401850186018701880189018a018b018c018d018e018f0190019101920193010cea070530c801c901ca01cb01cc01cd01ce01cf01d001d101d201d301d401d501d601d701d801d901da01db01dc01dd01de01df01e001e101e201e301e401e501e601e701e801e901ea01eb01ec01ed01ee01ef01f001f101f201f301f401f501f601f7010deb070730ac02ad02ae02af02b002b102b202b302b402b502b602b702b802b902ba02bb02bc02bd02be02bf02c002c102c202c302c402c502c602c702c802c902ca02cb02cc02cd02ce02cf02d002d102d202d302d402d502d602d702d802d902da02db020eec07093090039103920393039403950396039703980399039a039b039c039d039e039f03a003a103a203a303a403a503a603a703a803a903aa03ab03ac03ad03ae03af03b003b103b203b303b403b503b603b703b803b903ba03bb03bc03bd03be03bf0309",
	"485753482f3220323130204f4b20524553594e430a033702",
	"485753482f3220323131204f4b20434c4f53450a",
	"485753482f3220323132204f4b2050494e470a",
}

// TestWireBytesGolden: every request and response verb encodes to its
// pinned bytes, and those bytes decode to what was encoded. A round trip
// cannot catch a field out of place when one layout drives both
// directions; these bytes can. TestDeltaWireBytesHWSH2 pins a batch's rows.
func TestWireBytesGolden(t *testing.T) {
	reqs, resps := goldenRequests(), goldenResponses()
	if len(reqs) != len(goldenRequestHex) || len(resps) != len(goldenResponseHex) {
		t.Fatalf("%d requests and %d responses, %d and %d pinned encodings",
			len(reqs), len(resps), len(goldenRequestHex), len(goldenResponseHex))
	}
	for i, req := range reqs {
		raw := encodeRequest(req)
		if got := hex.EncodeToString(raw); got != goldenRequestHex[i] {
			t.Errorf("%s request encodes to\n%s\nwant\n%s", req.Verb, got, goldenRequestHex[i])
			continue
		}
		if got, err := decodeRequest(raw); err != nil || !reflect.DeepEqual(got, req) {
			t.Errorf("%s request decodes to %+v, %v; want %+v", req.Verb, got, err, req)
		}
	}
	for i, resp := range resps {
		raw := EncodeResponse(resp)
		if got := hex.EncodeToString(raw); got != goldenResponseHex[i] {
			t.Errorf("%s response %q encodes to\n%s\nwant\n%s", resp.Verb, resp.Err, got, goldenResponseHex[i])
			continue
		}
		if got, err := DecodeResponse(raw); err != nil || !sameResponse(got, resp) {
			t.Errorf("%s response %q decodes to %+v, %v; want %+v", resp.Verb, resp.Err, got, err, resp)
		}
	}
}
