package main

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"kadop/internal/kadop"
	"kadop/internal/pattern"
	"kadop/internal/sid"
	"kadop/internal/twigjoin"
	"kadop/internal/workload"
	"kadop/internal/xmltree"
)

// fig3Query is the paper's Figure 3 query; it has exactly RareCount
// answers per generated corpus.
const fig3Query = `//article//author[. contains "Ullman"]`

// corpus is a generated DBLP-like collection as the program receives
// it (serialized XML), plus the benchmark's own parse of the same bytes
// for the oracle.
type corpus struct {
	docs      []kadop.BatchDoc
	parsed    []*xmltree.Document
	bytes     []int // serialized size per document
	rareCount int
}

// makeCorpus generates records DBLP records from seed. URIs carry the
// tag so two corpora published into one cluster stay distinguishable.
func makeCorpus(seed int64, records int, tag string) (*corpus, error) {
	g := workload.DBLP{Seed: seed, Records: records}
	gen := g.Documents()
	c := &corpus{rareCount: (records + 499) / 500}
	for i, d := range gen {
		raw := []byte(xmltree.Serialize(d.Doc))
		doc, err := xmltree.ParseBytes(raw)
		if err != nil {
			return nil, fmt.Errorf("corpus %s doc %d: %w", tag, i, err)
		}
		c.docs = append(c.docs, kadop.BatchDoc{XML: raw, URI: fmt.Sprintf("%s-%05d.xml", tag, i)})
		c.parsed = append(c.parsed, doc)
		c.bytes = append(c.bytes, len(raw))
	}
	return c, nil
}

// size returns the serialized bytes of the first n documents.
func (c *corpus) size(n int) int64 {
	var s int64
	for _, b := range c.bytes[:n] {
		s += int64(b)
	}
	return s
}

// Query classes of the mix.
const (
	selective = iota
	broad
	numClasses
)

var classNames = [numClasses]string{"selective", "broad"}

// querySpec is one distinct query of the pool.
type querySpec struct {
	text  string
	class int
	q     *pattern.Query
}

// queryPool builds the seeded pool: selective queries are the Figure 3
// query plus rare author-word queries (the index phase dominates their
// time); broad queries are the workload.QueryMix templates without the
// rare-word template (most documents are candidates, so the answer
// phase dominates).
func queryPool(seed int64) ([]querySpec, error) {
	rng := rand.New(rand.NewSource(seed ^ 0x5e1ec7))
	texts := map[string]int{fig3Query: selective}
	for len(texts) < 33 {
		texts[fmt.Sprintf(`//article//author[. contains "author%04d"]`, 1000+rng.Intn(1000))] = selective
	}
	for _, t := range workload.QueryMix(seed, 96) {
		if !strings.Contains(t, `"author`) {
			texts[t] = broad
		}
	}
	var pool []querySpec
	for t, class := range texts {
		q, err := pattern.Parse(t)
		if err != nil {
			return nil, fmt.Errorf("query %q: %w", t, err)
		}
		pool = append(pool, querySpec{text: t, class: class, q: q})
	}
	sort.Slice(pool, func(i, j int) bool { return pool[i].text < pool[j].text })
	return pool, nil
}

// mix draws the query sequence: an even seeded mix of the two classes,
// uniform within a class.
type mix struct {
	rng     *rand.Rand
	byClass [numClasses][]int
}

func newMix(seed int64, pool []querySpec) *mix {
	m := &mix{rng: rand.New(rand.NewSource(seed ^ 0x3a1d))}
	for i, s := range pool {
		m.byClass[s.class] = append(m.byClass[s.class], i)
	}
	return m
}

func (m *mix) next() int {
	ids := m.byClass[m.rng.Intn(numClasses)]
	return ids[m.rng.Intn(len(ids))]
}

// answerSet is a query's answers as sorted canonical strings: document
// URI plus the matched element SIDs in pattern order.
type answerSet []string

func answerKey(uri string, sids []sid.SID) string {
	var sb strings.Builder
	sb.WriteString(uri)
	for _, s := range sids {
		fmt.Fprintf(&sb, "|%d.%d.%d", s.Start, s.End, s.Level)
	}
	return sb.String()
}

// oracle computes expected answers with the reference evaluator,
// pattern.MatchDocument, over the generated documents.
type oracle struct {
	// docs holds every document that may be published, by URI.
	docs map[string]*xmltree.Document
}

func newOracle() *oracle { return &oracle{docs: map[string]*xmltree.Document{}} }

func (o *oracle) add(c *corpus, n int) {
	for i := 0; i < n; i++ {
		o.docs[c.docs[i].URI] = c.parsed[i]
	}
}

// expect returns the answers of q over the oracle's documents.
func (o *oracle) expect(q *pattern.Query) answerSet {
	var out answerSet
	for uri, doc := range o.docs {
		for _, m := range pattern.MatchDocument(q, doc, sid.DocKey{}) {
			out = append(out, answerKey(uri, m.Elements))
		}
	}
	sort.Strings(out)
	return out
}

// uriMap resolves the program's document keys to URIs, from the keys
// PublishXMLBatch returned.
type uriMap map[sid.DocKey]string

// answers converts a query result to an answer set.
func (u uriMap) answers(ms []twigjoin.Match) (answerSet, error) {
	out := make(answerSet, 0, len(ms))
	for _, m := range ms {
		uri, ok := u[m.Doc]
		if !ok {
			return nil, fmt.Errorf("answer in unknown document %v", m.Doc)
		}
		sids := make([]sid.SID, len(m.Postings))
		for i, p := range m.Postings {
			sids[i] = p.SID
		}
		out = append(out, answerKey(uri, sids))
	}
	sort.Strings(out)
	return out, nil
}

func (a answerSet) equal(b answerSet) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// within reports lo ⊆ a ⊆ hi (all sorted).
func (a answerSet) within(lo, hi answerSet) bool {
	return subset(lo, a) && subset(a, hi)
}

func subset(a, b answerSet) bool {
	j := 0
	for _, x := range a {
		for j < len(b) && b[j] < x {
			j++
		}
		if j == len(b) || b[j] != x {
			return false
		}
		j++
	}
	return true
}
