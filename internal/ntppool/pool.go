// Package ntppool models the NTP Pool Project's server selection: a
// DNS round-robin that prefers servers geographically near the client
// (§2.3), plus vendor zones. It also provides the study driver that
// replays a simulated world's NTP queries through the pool into a passive
// collector — the paper's §3 methodology in code.
package ntppool

import (
	"fmt"

	"hitlist6/internal/simnet"
)

// Vantage is one pool server operated by the measurement study.
type Vantage struct {
	// ID is the server index (0-based), used as the collector's server
	// bit.
	ID int
	// Country is the ISO alpha-2 country the VPS runs in.
	Country string
	// Continent is a coarse region code used as the geo fallback tier.
	Continent string
}

// Pool is the DNS round-robin selector over the study's vantage servers.
type Pool struct {
	vantages []Vantage
	tiers    map[string]*tier // by key: "c:"+country, "k:"+continent, "g"
	byClient map[string]*tier // each client country's resolved tier
}

// tier is one selection list and its round-robin cursor. Client
// countries that resolve to the same list share the tier, and so the
// cursor.
type tier struct {
	idxs []int
	cur  int
}

// continentOf maps the countries used by the study and the simulator to
// coarse continent codes. Unknown countries fall into "XX" and use the
// global tier.
var continentOf = map[string]string{
	"US": "NA", "MX": "NA", "CA": "NA",
	"BR": "SA", "AR": "SA", "CL": "SA", "CO": "SA",
	"DE": "EU", "NL": "EU", "PL": "EU", "BG": "EU", "ES": "EU", "SE": "EU",
	"GB": "EU", "FR": "EU", "LU": "EU", "IT": "EU", "CZ": "EU", "RO": "EU",
	"UA": "EU", "TR": "EU",
	"JP": "AS", "KR": "AS", "CN": "AS", "HK": "AS", "TW": "AS", "SG": "AS",
	"IN": "AS", "ID": "AS", "BH": "AS", "VN": "AS", "TH": "AS", "MY": "AS",
	"PH": "AS",
	"AU": "OC",
	"ZA": "AF", "EG": "AF", "NG": "AF",
}

// ContinentOf returns the continent code for a country ("XX" if unknown).
func ContinentOf(country string) string {
	if c, ok := continentOf[country]; ok {
		return c
	}
	return "XX"
}

// StudyVantages returns the paper's 27 vantage points: 6 US, 2 JP, 2 DE
// and 1 each in 17 further countries (§3 "Vantage Points").
func StudyVantages() []Vantage {
	countries := []string{
		"US", "US", "US", "US", "US", "US",
		"JP", "JP",
		"DE", "DE",
		"AU", "BH", "BR", "BG", "HK", "IN", "ID", "MX", "NL", "PL",
		"SG", "ZA", "KR", "ES", "SE", "TW", "GB",
	}
	out := make([]Vantage, len(countries))
	for i, cc := range countries {
		out[i] = Vantage{ID: i, Country: cc, Continent: ContinentOf(cc)}
	}
	return out
}

// New builds a pool over the given vantage servers.
func New(vantages []Vantage) (*Pool, error) {
	if len(vantages) == 0 {
		return nil, fmt.Errorf("ntppool: no vantages")
	}
	p := &Pool{
		vantages: append([]Vantage(nil), vantages...),
		tiers:    make(map[string]*tier),
		byClient: make(map[string]*tier),
	}
	add := func(key string, i int) {
		t := p.tiers[key]
		if t == nil {
			t = &tier{}
			p.tiers[key] = t
		}
		t.idxs = append(t.idxs, i)
	}
	for i, v := range p.vantages {
		add("c:"+v.Country, i)
		add("k:"+v.Continent, i)
		add("g", i)
	}
	return p, nil
}

// Select returns the vantage a client from the given country is directed
// to. Selection follows the pool's geo DNS behaviour: same-country servers
// first, then same-continent, then the global pool, rotating round-robin
// within the chosen tier. A country's tier is resolved on its first
// Select; after that a Select is one map read.
func (p *Pool) Select(clientCountry string) Vantage {
	return p.pick(p.tierFor(clientCountry))
}

// tierFor returns the tier a client country selects from.
func (p *Pool) tierFor(clientCountry string) *tier {
	t := p.byClient[clientCountry]
	if t == nil {
		t = p.tiers["c:"+clientCountry]
		if t == nil {
			t = p.tiers["k:"+ContinentOf(clientCountry)]
		}
		if t == nil {
			t = p.tiers["g"]
		}
		p.byClient[clientCountry] = t
	}
	return t
}

// pick returns the tier's next vantage and advances its cursor.
func (p *Pool) pick(t *tier) Vantage {
	v := p.vantages[t.idxs[t.cur]]
	t.cur++
	if t.cur == len(t.idxs) {
		t.cur = 0
	}
	return v
}

// VendorZone returns the pool zone a device kind's software would query
// (vendor zones per §2.3: android, ubuntu, centos, ...).
func VendorZone(kind simnet.DeviceKind) string {
	switch kind {
	case simnet.KindPhone:
		return "android.pool.ntp.org"
	case simnet.KindIoT:
		return "iot.pool.ntp.org"
	case simnet.KindServer:
		return "centos.pool.ntp.org"
	case simnet.KindCPE:
		return "openwrt.pool.ntp.org"
	default:
		return "pool.ntp.org"
	}
}

// RunStats summarizes a study replay.
type RunStats struct {
	Queries       uint64
	PerVantage    []uint64
	PerZone       map[string]uint64
	UniqueClients int
}
