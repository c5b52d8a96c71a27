#include "sim/half_gates_table.hpp"

#include "sim/segment_trace.hpp"

namespace pypim
{

const HalfGates &
HalfGatesTable::intern(Word word, const MicroOp &op)
{
    const auto it = index_.find(word);
    if (it != index_.end())
        return *it->second;
    // Expand before inserting anything: a malformed word throws here
    // and leaves the table exactly as it was.
    const HalfGates &hg = store_.emplace_back(expandLogicH(op, geo_));
    index_.emplace(word, &hg);
    return hg;
}

const HalfGates *
HalfGatesTable::find(Word word) const
{
    const auto it = index_.find(word);
    return it == index_.end() ? nullptr : it->second;
}

bool
HalfGatesTable::fusable(const HalfGates &init, const HalfGates &nor)
{
    const auto [it, fresh] = fusable_.try_emplace({&init, &nor}, false);
    if (fresh)
        it->second = fusableInitNor(init, nor);
    return it->second;
}

size_t
HalfGatesTable::bytes() const
{
    // Node-based containers: one heap node per element (key, value
    // and the next pointer, rounded to the pair size plus overhead)
    // and one pointer per bucket.
    constexpr size_t kNode = 2 * sizeof(void *);
    return store_.size() * sizeof(HalfGates) +
           index_.size() * (sizeof(Word) + sizeof(void *) + kNode) +
           index_.bucket_count() * sizeof(void *) +
           fusable_.size() * (2 * sizeof(void *) + kNode) +
           fusable_.bucket_count() * sizeof(void *);
}

} // namespace pypim
