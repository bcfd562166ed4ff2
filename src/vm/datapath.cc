#include "vm/datapath.hh"

#include <iterator>

#include "support/logging.hh"

namespace branchlab::vm
{

void
Channels::setInput(std::size_t channel, std::vector<ir::Word> words)
{
    blab_assert(channel < kCount, "channel out of range");
    inputs_[channel] = std::move(words);
    cursors_[channel] = 0;
}

void
Channels::rewind()
{
    cursors_.fill(0);
    for (std::vector<ir::Word> &output : outputs_)
        output.clear();
}

const std::vector<ir::Word> &
Channels::output(std::size_t channel) const
{
    blab_assert(channel < kCount, "channel out of range");
    return outputs_[channel];
}

std::vector<std::vector<ir::Word>>
Channels::takeOutputs()
{
    return {std::make_move_iterator(outputs_.begin()),
            std::make_move_iterator(outputs_.end())};
}

} // namespace branchlab::vm
