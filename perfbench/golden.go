package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"

	"hido/internal/stream"
)

// goldenFit is a reference fit and the SHA-256 of the model JSON the
// seed commit produced for it.
type goldenFit struct {
	profile              string
	phi                  int
	dataSeed, searchSeed uint64
	digest               string
}

// goldenFits are the reference fits each workload repeats after its
// timed phase, on data that does not depend on the workload seed. The
// in-run checks compare the program with itself (a seed's model across
// repetitions, a cluster fit with a single-node fit); these pin the
// models across runs and commits, so a change to which projections a
// search returns fails the output check. `go test -run TestGoldenFits
// -v` in perfbench/ prints the digests the checkout's code produces.
var goldenFits = func() map[string][]goldenFit {
	musk := []goldenFit{
		{fitProfile, fitPhi, 1, 1, "9bfef0922de3c6f6392de9843e10fe607f7162866065c63e17fde54891415a58"},
		{fitProfile, fitPhi, 1, 2, "a708b5ac7024ab9641465ed7021c16b637563e34b97a9b63365748dbde62ec1d"},
	}
	segmentation := []goldenFit{
		{serveProfile, servePhi, 1, 1, "fca973dce97032e9bf8a29c40c1bc71c765ddd5dd918d44dfe4f236dce501e99"},
		{serveProfile, servePhi, 1, 2, "9eaf3f203ef5b8e6f7838ec4073db40a8a7a745728085845c946e978236edf2c"},
	}
	return map[string][]goldenFit{
		"fit":         musk,
		"score":       segmentation,
		"ingest":      segmentation,
		"cluster-fit": segmentation,
	}
}()

// modelDigest fits g and returns the hex SHA-256 of its model JSON.
func modelDigest(g goldenFit) (string, error) {
	ds, err := profileData(g.profile, g.dataSeed)
	if err != nil {
		return "", err
	}
	mon, err := stream.NewMonitor(ds, stream.Options{Phi: g.phi, Seed: g.searchSeed})
	if err != nil {
		return "", err
	}
	var buf bytes.Buffer
	if err := mon.Save(&buf); err != nil {
		return "", err
	}
	sum := sha256.Sum256(buf.Bytes())
	return hex.EncodeToString(sum[:]), nil
}

// checkGolden repeats the workload's reference fits, each one operation
// that fails when its digest differs from the recorded one.
func checkGolden(r *run, workload string) {
	for _, g := range goldenFits[workload] {
		r.attempted++
		got, err := modelDigest(g)
		switch {
		case err != nil:
			r.fail("reference fit %s phi=%d data seed %d search seed %d: %v", g.profile, g.phi, g.dataSeed, g.searchSeed, err)
		case got != g.digest:
			r.fail("reference fit %s phi=%d data seed %d search seed %d: model digest %s, recorded %s",
				g.profile, g.phi, g.dataSeed, g.searchSeed, got, g.digest)
		}
	}
}

// runWorkload runs one known workload and then its reference fits.
func runWorkload(o options, r *run) error {
	if err := workloads[o.workload](o, r); err != nil {
		return err
	}
	checkGolden(r, o.workload)
	return nil
}
