package campaign

import (
	"encoding/binary"
	"encoding/json"
	"hash/crc32"
	"testing"
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// reseal rewrites the CRC-32C trailer of an encoded summary so that a
// mutated body reaches the decoder's structural checks instead of
// failing at the checksum (which only detects accidental corruption).
func reseal(enc []byte) {
	if len(enc) < 4 {
		return
	}
	body := enc[:len(enc)-4]
	binary.LittleEndian.PutUint32(enc[len(enc)-4:], crc32.Checksum(body, castagnoli))
}

// FuzzMergeShardStates feeds JSON-decoded shard states — what a
// coordinator reads off the network from its workers — to
// MergeShardStates. Whatever the states hold, the merge must return an
// error or a summary, never panic.
func FuzzMergeShardStates(f *testing.F) {
	results := syntheticResults(40, 5)
	for _, shards := range []int{1, 2, 4} {
		block := blockSize(len(results), shards)
		var states []ShardState
		for s := 0; s < shards; s++ {
			a := newAggregator()
			for i := s * block; i < (s+1)*block && i < len(results); i++ {
				a.add(&results[i])
			}
			st, err := a.state(s)
			if err != nil {
				f.Fatal(err)
			}
			states = append(states, st)
		}
		enc, err := json.Marshal(states)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(enc)
		if shards == 2 {
			dup, err := json.Marshal([]ShardState{states[0], states[0]})
			if err != nil {
				f.Fatal(err)
			}
			f.Add(dup)
		}
	}
	f.Add([]byte(`[]`))
	f.Add([]byte(`null`))
	f.Add([]byte(`[{}]`))
	f.Add([]byte(`[{"shard":-1,"scenarios":-5,"sum_w":-1}]`))

	f.Fuzz(func(t *testing.T, data []byte) {
		var states []ShardState
		if err := json.Unmarshal(data, &states); err != nil {
			return
		}
		for i := range states {
			st := &states[i]
			for _, b := range [][]byte{st.Latency, st.Loss, st.FailedTasks, st.Tentative, st.Corrected, st.T2C} {
				reseal(b)
			}
		}
		_, _ = MergeShardStates(states)
	})
}
