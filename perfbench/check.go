package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
)

// sameRecords compares an op's records with the reference, both as
// serve.RecordsJSON renders them, and names the first difference.
func sameRecords(got, want []byte) string {
	if bytes.Equal(got, want) {
		return ""
	}
	var g, w []map[string]string
	if err := json.Unmarshal(got, &g); err != nil {
		return fmt.Sprintf("records are not a JSON list of objects: %v", err)
	}
	if err := json.Unmarshal(want, &w); err != nil {
		return fmt.Sprintf("reference records are not a JSON list of objects: %v", err)
	}
	if len(g) != len(w) {
		return fmt.Sprintf("%d records, reference has %d", len(g), len(w))
	}
	for i := range g {
		a, _ := json.Marshal(g[i])
		b, _ := json.Marshal(w[i])
		if !bytes.Equal(a, b) {
			return fmt.Sprintf("record %d is %s, reference has %s", i, a, b)
		}
	}
	return "records differ from the reference in encoding"
}

// checkCost checks that a query's reported cost equals what the LLM
// service charged for it.
func checkCost(reported, charged float64) string {
	if math.Abs(reported-charged) > 1e-9*math.Max(1, math.Abs(charged)) {
		return fmt.Sprintf("reported cost $%.9f, service charged $%.9f", reported, charged)
	}
	return ""
}

// f1Floor is the least F1 a filter may score whose decisions are each
// right with probability acc, on a corpus whose positive share is rate.
// Errors split evenly over the classes give an expected F1 of
// 2·acc·rate / (2·acc·rate + (1−acc)); the floor lies (1−acc) below it,
// so a model the catalog treats as gold (acc = 1) must score exactly 1.
func f1Floor(acc, rate float64) float64 {
	tp := acc * rate
	return 2*tp/(2*tp+(1-acc)) - (1 - acc)
}

func f1Score(tp, fp, fn int) float64 {
	if tp == 0 {
		return 0
	}
	return 2 * float64(tp) / float64(2*tp+fp+fn)
}
